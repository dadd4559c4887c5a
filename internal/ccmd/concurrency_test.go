package ccmd

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/workload"
)

// TestConcurrentClientsByteIdentity is the service's headline contract:
// N concurrent clients with mixed configurations against ONE shared
// driver (memory + disk cache tiers both live) each get output
// byte-identical to a solo ccmc compile of their (program, config) —
// concurrency, cache sharing, and repeat requests change latency, never
// bytes. Run under -race it doubles as the service's race-detector
// workload.
func TestConcurrentClientsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-client compile matrix")
	}
	drv := pipeline.New(pipeline.Options{
		Workers:  4,
		CacheDir: t.TempDir(),
		Metrics:  obs.NewRegistry(),
	})
	if err := drv.DiskCacheErr(); err != nil {
		t.Fatalf("disk cache: %v", err)
	}
	svc, err := NewService(Config{Driver: drv, MaxInflight: 8, MaxQueue: 64})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}

	// Mixed client population: different programs x strategies x CCM
	// sizes, plus deliberate duplicates so some clients race for the
	// same cache key.
	type client struct {
		name string
		text string
		cfg  RequestConfig
	}
	var clients []client
	routines := []string{"fir", "decomp", "saturr"}
	strategies := []struct {
		strat string
		ccm   int64
	}{
		{"none", 0},
		{"postpass", 512},
		{"integrated", 256},
	}
	for _, rname := range routines {
		r, ok := workload.Lookup(rname)
		if !ok {
			t.Fatalf("no workload routine %q", rname)
		}
		p, err := r.Build()
		if err != nil {
			t.Fatalf("build %s: %v", rname, err)
		}
		text := p.String()
		for _, s := range strategies {
			cfg := RequestConfig{Strategy: s.strat, CCMBytes: s.ccm}
			clients = append(clients,
				client{fmt.Sprintf("%s/%s", rname, s.strat), text, cfg},
				// The duplicate: same key, racing for the same cache slot.
				client{fmt.Sprintf("%s/%s/dup", rname, s.strat), text, cfg})
			// Checked clients on the shared driver share its oracle
			// memo; every strategy checks the same input runs.
			cfg = RequestConfig{Strategy: s.strat, CCMBytes: s.ccm, DiffCheck: "final"}
			clients = append(clients,
				client{fmt.Sprintf("%s/%s/final", rname, s.strat), text, cfg},
				client{fmt.Sprintf("%s/%s/final/dup", rname, s.strat), text, cfg})
		}
	}

	// Reference outputs from solo, cache-free, single-worker compiles.
	want := make(map[string]string)
	for _, c := range clients {
		if _, ok := want[c.name]; ok {
			continue
		}
		svcRef := newTestService(t, nil)
		pcfg, apiErr := svcRef.pipelineConfig(&CompileRequest{Config: c.cfg})
		if apiErr != nil {
			t.Fatalf("%s: pipelineConfig: %v", c.name, apiErr)
		}
		want[c.name] = soloCompile(t, c.text, pcfg)
	}

	var wg sync.WaitGroup
	got := make([]string, len(clients))
	errs := make([]*APIError, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			resp, apiErr := svc.Compile(context.Background(), &CompileRequest{
				Program: c.text,
				Config:  c.cfg,
			})
			if apiErr != nil {
				errs[i] = apiErr
				return
			}
			got[i] = resp.Output
		}(i, c)
	}
	wg.Wait()
	for i, c := range clients {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		if got[i] != want[c.name] {
			t.Errorf("%s: shared-service output differs from solo compile", c.name)
		}
	}

	// The whole-cache invariant: every lookup that hit was served by
	// exactly one tier.
	cs := drv.Metrics().Cache
	if cs.Hits != cs.Memory.Hits+cs.Disk.Hits {
		t.Fatalf("cache invariant broken: Hits=%d, Memory.Hits=%d, Disk.Hits=%d",
			cs.Hits, cs.Memory.Hits, cs.Disk.Hits)
	}
	if cs.Hits+cs.Misses == 0 {
		t.Fatalf("cache never consulted across %d compiles", len(clients))
	}

	// Repeat the whole population: every answer must now be served
	// (identically) with at least the duplicates' worth of cache hits.
	before := cs.Hits
	for i, c := range clients {
		resp, apiErr := svc.Compile(context.Background(), &CompileRequest{
			Program: c.text, Config: c.cfg,
		})
		if apiErr != nil {
			t.Fatalf("repeat %s: %v", c.name, apiErr)
		}
		if resp.Output != want[c.name] {
			t.Errorf("repeat %s: output changed on the cached path", c.name)
		}
		_ = i
	}
	cs = drv.Metrics().Cache
	if cs.Hits <= before {
		t.Fatalf("repeat pass produced no cache hits (%d -> %d)", before, cs.Hits)
	}
	if cs.Hits != cs.Memory.Hits+cs.Disk.Hits {
		t.Fatalf("cache invariant broken after repeat: Hits=%d Memory=%d Disk=%d",
			cs.Hits, cs.Memory.Hits, cs.Disk.Hits)
	}
}
