package pipeline

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"ccmem/internal/remotecache"
	"ccmem/internal/workload"
)

// fleetURLs spins up n in-process cache servers and returns their base
// URLs.
func fleetURLs(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		_, hs := remoteServer(t)
		urls[i] = hs.URL
	}
	return urls
}

// resettableFleetURLs spins up n cache servers whose stores can be
// swapped for fresh ones without changing their URLs. Rendezvous
// placement keys off the URL, so determinism tests that rerun a
// scenario at several worker counts need identical URLs with clean
// stores each run — otherwise the first run's write-behind puts feed
// hits to the second.
func resettableFleetURLs(t *testing.T, n int) (urls []string, reset func()) {
	t.Helper()
	handlers := make([]atomic.Value, n)
	reset = func() {
		for i := range handlers {
			srv, err := remotecache.NewServer(t.TempDir(), remotecache.ServerOptions{})
			if err != nil {
				t.Fatalf("remotecache.NewServer: %v", err)
			}
			handlers[i].Store(srv.Handler("test"))
		}
	}
	reset()
	urls = make([]string, n)
	for i := range handlers {
		h := &handlers[i]
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.Load().(http.Handler).ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	return urls, reset
}

// warmFleet populates a fleet from a healthy driver: every artifact of
// seed's program lands on its first two preference nodes.
func warmFleet(t *testing.T, urls []string, seed int64, cfg Config) {
	t.Helper()
	w := New(Options{RemoteURLs: urls, RemoteTuning: fastRemoteTuning()})
	if err := w.RemoteCacheErr(); err != nil {
		t.Fatalf("warm fleet attach: %v", err)
	}
	mustCompile(t, w, workload.RandomProgram(seed), cfg)
	closeRemote(t, w)
}

// TestFleetFaultMatrixDeterminism is the tentpole's robustness claim:
// in a 3-node fleet, any single node failing in any mode — fully down,
// connection refused, truncating responses, flipping bits, hanging, or
// answering 5xx — yields compiled output byte-identical to a cold
// no-remote compile, with the deterministic counter set (failures,
// degradations, whole-cache hits/misses, fleet hits, failovers)
// identical at workers=1 and workers=8. All three nodes down degrades
// to the local tiers and still completes every compile.
func TestFleetFaultMatrixDeterminism(t *testing.T) {
	cfg := detConfig(Integrated)
	const seed = 90
	want := coldILOC(t, seed, cfg)

	scenarios := []struct {
		name    string
		warm    bool // pre-populate the fleet so read-path faults have bytes to mangle
		kind    remotecache.FaultKind
		down    bool // the faulted node is a dead address, not a faulted transport
		allDown bool // every node is a dead address
	}{
		{name: "node-down", down: true},
		{name: "refused", kind: remotecache.FaultRefused},
		{name: "truncated", warm: true, kind: remotecache.FaultTruncate},
		{name: "bit-flip", warm: true, kind: remotecache.FaultBitFlip},
		{name: "slow", kind: remotecache.FaultSlow},
		{name: "5xx", kind: remotecache.Fault5xx},
		{name: "all-down", allDown: true},
	}
	for i, sc := range scenarios {
		sick := i % 3 // rotate which node takes the fault
		t.Run(sc.name, func(t *testing.T) {
			var urls []string
			reset := func() {}
			switch {
			case sc.allDown:
				urls = []string{deadURL(t), deadURL(t), deadURL(t)}
			case sc.down:
				urls, reset = resettableFleetURLs(t, 3)
				urls[sick] = deadURL(t)
			default:
				urls, reset = resettableFleetURLs(t, 3)
			}
			type outcome struct {
				output                   string
				failures, degraded       int64
				hits, misses, remoteHits int64
				failovers                int64
			}
			byWorkers := map[int]outcome{}
			for _, workers := range []int{1, 8} {
				// Same URLs (placement is URL-keyed), fresh stores: the
				// two worker runs must see identical fleet contents.
				reset()
				sickIdx := sick
				if sc.warm {
					warmFleet(t, urls, seed, cfg)
					// Fault the node that actually serves this compile's
					// artifact — a probe compile reveals the placement —
					// so the read path is guaranteed to hit the fault and
					// fail over to the surviving replica.
					probe := New(Options{RemoteURLs: urls, RemoteTuning: fastRemoteTuning()})
					pr := mustCompile(t, probe, workload.RandomProgram(seed), cfg)
					closeRemote(t, probe)
					sickIdx = -1
					for i, ns := range pr.Cache.Remote.Nodes {
						if ns.Hits > 0 {
							sickIdx = i
						}
					}
					if sickIdx < 0 {
						t.Fatalf("probe compile hit no node: %+v", pr.Cache.Remote)
					}
				}
				var rts []http.RoundTripper
				if !sc.down && !sc.allDown {
					rt := &remotecache.FaultRT{}
					rt.Arm(sc.kind)
					rts = make([]http.RoundTripper, 3)
					rts[sickIdx] = rt
				}
				d := New(Options{Workers: workers, RemoteURLs: urls,
					RemoteFaultRTs: rts, RemoteTuning: fastRemoteTuning()})
				if err := d.RemoteCacheErr(); err != nil {
					t.Fatalf("attach: %v", err)
				}
				p := workload.RandomProgram(seed)
				rep := mustCompile(t, d, p, cfg)
				if got := p.String(); got != want {
					t.Errorf("workers=%d: output under %s differs from cold compile", workers, sc.name)
				}
				rs := rep.Cache.Remote
				if sc.warm {
					// One replica always survives a single sick node: the
					// fleet keeps serving.
					if rs.Hits < 1 {
						t.Errorf("workers=%d %s: warm fleet served no hits: %+v", workers, sc.name, rs)
					}
					if rs.Failovers < 1 {
						t.Errorf("workers=%d %s: faulted primary absorbed no failover: %+v", workers, sc.name, rs)
					}
				} else if rs.Hits != 0 {
					t.Errorf("workers=%d %s: %d hits from a cold fleet", workers, sc.name, rs.Hits)
				}
				// The compile survived, but the report must not hide the
				// trouble: some hardening counter reflects the scenario.
				trouble := rs.Timeouts + rs.NetErrors + rs.HTTPErrors + rs.Corruptions + rs.Skipped
				if trouble == 0 {
					t.Errorf("workers=%d %s: no network fault surfaced in the report: %+v", workers, sc.name, rs)
				}
				if rep.Failures != 0 || rep.Degraded != 0 {
					t.Errorf("workers=%d %s: a fleet fault degraded a compile: failures=%d degraded=%d",
						workers, sc.name, rep.Failures, rep.Degraded)
				}
				if len(rs.Nodes) != 3 {
					t.Errorf("workers=%d %s: %d per-node blocks, want 3", workers, sc.name, len(rs.Nodes))
				}
				if sc.allDown {
					if rs.Failovers != 0 {
						t.Errorf("workers=%d all-down: failovers=%d with no node to fail over to", workers, rs.Failovers)
					}
					if got := d.RemoteCircuit(); got != "open" {
						t.Errorf("workers=%d all-down: fleet circuit %q, want open", workers, got)
					}
				}
				byWorkers[workers] = outcome{
					output:   p.String(),
					failures: rep.Failures, degraded: rep.Degraded,
					hits: rep.Cache.Hits, misses: rep.Cache.Misses,
					remoteHits: rs.Hits, failovers: rs.Failovers,
				}
				closeRemote(t, d)
			}
			if byWorkers[1] != byWorkers[8] {
				t.Errorf("%s: deterministic counters differ across worker counts:\n  workers=1: %+v\n  workers=8: %+v",
					sc.name, byWorkers[1], byWorkers[8])
			}
		})
	}
}

// TestFleetWholeCacheInvariantUnderFaults extends the whole-cache
// invariant — Hits == Memory.Hits + Disk.Hits + Remote.Hits — to a
// replicated fleet taking single-node faults, cold and warm, at both
// worker counts.
func TestFleetWholeCacheInvariantUnderFaults(t *testing.T) {
	cfg := detConfig(Integrated)
	const seed = 91
	urls := fleetURLs(t, 3)
	warmFleet(t, urls, seed, cfg)

	for _, workers := range []int{1, 8} {
		for sick := 0; sick < 3; sick++ {
			rt := &remotecache.FaultRT{}
			rt.Arm(remotecache.FaultRefused)
			rts := make([]http.RoundTripper, 3)
			rts[sick] = rt
			d := New(Options{Workers: workers, RemoteURLs: urls,
				RemoteFaultRTs: rts, RemoteTuning: fastRemoteTuning()})
			rep := mustCompile(t, d, workload.RandomProgram(seed), cfg)
			got := rep.Cache
			if got.Hits != got.Memory.Hits+got.Disk.Hits+got.Remote.Hits {
				t.Errorf("workers=%d sick=%d: whole-cache invariant broken: %d != %d + %d + %d",
					workers, sick, got.Hits, got.Memory.Hits, got.Disk.Hits, got.Remote.Hits)
			}
			if got.Remote.Hits < 1 {
				t.Errorf("workers=%d sick=%d: warm fleet served no hits: %+v", workers, sick, got.Remote)
			}
			closeRemote(t, d)
		}
	}
}

// TestFleetReportJSONShape pins the fleet extension of the report
// surface: the remote block grows a nodes array (url + per-node
// counters, circuit included) and the fleet counters appear by name
// once nonzero.
func TestFleetReportJSONShape(t *testing.T) {
	cfg := detConfig(PostPass)
	const seed = 93
	urls := fleetURLs(t, 2)
	urls[1] = deadURL(t) // asymmetric fleet: one healthy node, one dead
	w := New(Options{RemoteURLs: []string{urls[0]}, RemoteTuning: fastRemoteTuning()})
	mustCompile(t, w, workload.RandomProgram(seed), cfg)
	closeRemote(t, w)

	d := New(Options{RemoteURLs: urls, RemoteTuning: fastRemoteTuning()})
	rep := mustCompile(t, d, workload.RandomProgram(seed), cfg)
	closeRemote(t, d)

	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Cache struct {
			Remote map[string]json.RawMessage `json:"remote"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	nodesRaw, ok := decoded.Cache.Remote["nodes"]
	if !ok {
		t.Fatalf("fleet remote block has no nodes array: %s", raw)
	}
	var nodes []map[string]json.RawMessage
	if err := json.Unmarshal(nodesRaw, &nodes); err != nil || len(nodes) != 2 {
		t.Fatalf("nodes block wrong shape (%v): %s", err, nodesRaw)
	}
	for i, n := range nodes {
		for _, key := range []string{"url", "hits", "misses", "circuit"} {
			if _, ok := n[key]; !ok {
				t.Errorf("node %d missing %q: %s", i, key, nodesRaw)
			}
		}
	}

	// The dead secondary never answers; any lookup it was primary for is
	// a failover, and RemoteNodes exposes the asymmetric circuit state.
	states := d.RemoteNodes()
	if len(states) != 2 {
		t.Fatalf("RemoteNodes = %v, want 2 entries", states)
	}
	for _, ns := range states {
		if ns.URL == "" || ns.Circuit == "" {
			t.Errorf("RemoteNodes entry incomplete: %+v", ns)
		}
	}
	if d.RemoteCircuit() != "closed" {
		t.Errorf("fleet circuit %q with one healthy node, want closed", d.RemoteCircuit())
	}
}

// TestFleetSingleURLUnchanged: one remote URL is a one-node fleet —
// the same construction path and stats shape as any fleet, so
// RemoteNodes and the report's nodes block both list the one node, and
// the fleet-level lookups are that node's lookups.
func TestFleetSingleURLUnchanged(t *testing.T) {
	_, hs := remoteServer(t)
	d := New(Options{RemoteURLs: []string{hs.URL}, RemoteTuning: fastRemoteTuning()})
	defer closeRemote(t, d)
	if d.Cache().Remote() == nil {
		t.Fatalf("single-URL remote tier not attached: %v", d.RemoteCacheErr())
	}
	if nodes := d.RemoteNodes(); len(nodes) != 1 || nodes[0].URL != hs.URL || nodes[0].Circuit != "closed" {
		t.Fatalf("RemoteNodes = %+v, want the one closed node %s", nodes, hs.URL)
	}
	cfg := detConfig(PostPass)
	rep := mustCompile(t, d, workload.RandomProgram(94), cfg)
	rs := rep.Cache.Remote
	if len(rs.Nodes) != 1 || rs.Nodes[0].URL != hs.URL {
		t.Fatalf("single-server remote block has nodes %+v, want the one node", rs.Nodes)
	}
	if n := rs.Nodes[0]; n.Hits != rs.Hits || n.Misses != rs.Misses || rs.Misses == 0 {
		t.Fatalf("one-node fleet lookups %d/%d differ from its node's %d/%d",
			rs.Hits, rs.Misses, n.Hits, n.Misses)
	}
}

// TestFleetDeadPutsCounted: when every node's breaker is open, a put
// still reaches the key's preferred node, whose write-behind worker
// counts it as skipped and dropped — a dead fleet's lost writes are
// visible, for one node as for several.
func TestFleetDeadPutsCounted(t *testing.T) {
	cfg := detConfig(PostPass)
	tun := fastRemoteTuning()
	tun.TripAfter = 1
	for _, n := range []int{1, 2} {
		urls := make([]string, n)
		for i := range urls {
			urls[i] = deadURL(t)
		}
		d := New(Options{RemoteURLs: urls, RemoteTuning: tun})
		mustCompile(t, d, workload.RandomProgram(96), cfg)
		closeRemote(t, d) // the write-behind workers count the puts
		rs := d.Cache().Stats().Remote
		if rs.PutDrops == 0 {
			t.Errorf("%d dead nodes: no put drops counted: %+v", n, rs)
		}
		// No node answers, so every lookup walks all n nodes. With one
		// attempt per failed operation (Retries < 0), the node gets that
		// reached the wire are the network errors the puts did not
		// cause; every other node get was skipped, and the remaining
		// skips are the dropped puts.
		nodeGets := int64(n) * (rs.Hits + rs.Misses)
		skippedGets := nodeGets - (rs.NetErrors - rs.PutErrors)
		if skippedPuts := rs.Skipped - skippedGets; skippedPuts != rs.PutDrops {
			t.Errorf("%d dead nodes: %d skipped puts, %d put drops: %+v", n, skippedPuts, rs.PutDrops, rs)
		}
	}
}

// TestFleetBadNodeURLIsMemoryOnly: one malformed URL fails the whole
// fleet the same way a malformed single URL does — surfaced via
// RemoteCacheErr, compile unaffected.
func TestFleetBadNodeURLIsMemoryOnly(t *testing.T) {
	_, hs := remoteServer(t)
	d := New(Options{RemoteURLs: []string{hs.URL, "not a url"}})
	if d.RemoteCacheErr() == nil {
		t.Fatal("no error surfaced for a malformed fleet node URL")
	}
	cfg := detConfig(PostPass)
	want := coldILOC(t, 95, cfg)
	p := workload.RandomProgram(95)
	mustCompile(t, d, p, cfg)
	if p.String() != want {
		t.Error("missing fleet changed the output")
	}
}
