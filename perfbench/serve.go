package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ccmem/internal/ccmd"
	"ccmem/internal/ir"
	"ccmem/internal/pipeline"
	"ccmem/internal/sim"
	"ccmem/internal/workload"
)

const (
	// serveScriptLen is the number of requests in one pass; each pass
	// starts a fresh ccmd, so every pass sees the same first-touch misses.
	serveScriptLen = 2000
	// serveClients is the closed-loop connection count: ccmd's callers
	// wait for each reply. With one request in flight the load generator
	// and ccmd share a 2-CPU machine without contending; two connections
	// made passes of one run differ by twice as much.
	serveClients = 1
	// serveZipfS skews the key popularity the way a shared build service
	// sees it: a few hot (input, config) pairs and a long tail.
	serveZipfS = 1.1
	// serveRandomPrograms is how many seeded random programs join the
	// suite routines and whole programs as inputs.
	serveRandomPrograms = 8
)

// serveConfigs are the request configurations of the mix: the baseline
// plus each CCM strategy at both of the paper's CCM sizes. diff_check is
// left off, the service default.
var serveConfigs = []ccmd.RequestConfig{
	{Strategy: "none"},
	{Strategy: "postpass", CCMBytes: 512},
	{Strategy: "postpass", CCMBytes: 1024},
	{Strategy: "postpass-ipa", CCMBytes: 512},
	{Strategy: "postpass-ipa", CCMBytes: 1024},
	{Strategy: "integrated", CCMBytes: 512},
	{Strategy: "integrated", CCMBytes: 1024},
}

// serveKey is one (input, config) pair of the mix.
type serveKey struct {
	input *ir.Program // uncompiled, for the emit-trace check
	cfg   ccmd.RequestConfig
	body  []byte // the POST /compile body
}

// serveKeys builds the key set: 64 suite routines, 11 whole programs and
// serveRandomPrograms random programs drawn from the seed, each under
// every config. The keys are then ranked by a fixed shuffle, so the hot
// keys are the same (input, config) pairs for every seed and the seed
// moves only the request order and the random programs.
func serveKeys(seed int64, led ledger) ([]serveKey, error) {
	var inputs []*ir.Program
	var err error
	led.span("workload.build", func() {
		for _, r := range workload.All() {
			var p *ir.Program
			if p, err = r.Build(); err != nil {
				return
			}
			inputs = append(inputs, p)
		}
		for _, bp := range workload.Programs() {
			var p *ir.Program
			if p, err = bp.Build(); err != nil {
				return
			}
			inputs = append(inputs, p)
		}
		for i := int64(0); i < serveRandomPrograms; i++ {
			inputs = append(inputs, workload.RandomProgram(seed*serveRandomPrograms+i))
		}
	})
	if err != nil {
		return nil, err
	}
	var keys []serveKey
	for _, p := range inputs {
		text := p.String()
		for _, c := range serveConfigs {
			body, err := json.Marshal(ccmd.CompileRequest{Program: text, Config: c})
			if err != nil {
				return nil, err
			}
			keys = append(keys, serveKey{input: p, cfg: c, body: body})
		}
	}
	rand.New(rand.NewSource(20260101)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys, nil
}

// zipfScript returns one pass's request sequence. Each key is requested
// its expected number of times under Zipf(serveZipfS) over the ranks,
// rounded by largest remainder so the counts sum to serveScriptLen, and
// the seed shuffles the order. Every seed thus makes the same requests and
// touches the same keys, so a seed moves when the misses land, not how
// many there are or which inputs they compile; independent Zipf draws
// changed a pass's work by a fifth from one seed to the next.
func zipfScript(seed int64, nKeys int) []int {
	weights := make([]float64, nKeys)
	var sum float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -serveZipfS)
		sum += weights[r]
	}
	counts := make([]int, nKeys)
	rems := make([]int, nKeys)
	left := serveScriptLen
	for r, w := range weights {
		exact := w / sum * serveScriptLen
		counts[r] = int(exact)
		left -= counts[r]
		weights[r] = exact - float64(counts[r])
		rems[r] = r
	}
	sort.SliceStable(rems, func(i, j int) bool { return weights[rems[i]] > weights[rems[j]] })
	for _, r := range rems[:left] {
		counts[r]++
	}
	script := make([]int, 0, serveScriptLen)
	for r, c := range counts {
		for ; c > 0; c-- {
			script = append(script, r)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })
	return script
}

// reply is what one request returned.
type reply struct {
	rtt    time.Duration
	status int
	output string
	hit    bool
	wallNS int64
	body   []byte // the raw response, kept only for replay
}

// servePass drives one fresh ccmd through the script with the given
// number of closed-loop clients sharing one request queue.
func servePass(base string, keys []serveKey, script []int, clients int, keepBodies bool) []reply {
	tr := &http.Transport{MaxIdleConnsPerHost: clients}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	out := make([]reply, len(script))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(script) {
					return
				}
				out[i] = post(hc, base, keys[script[i]].body, keepBodies)
			}
		}()
	}
	wg.Wait()
	return out
}

func post(hc *http.Client, base string, body []byte, keepBody bool) reply {
	t := time.Now()
	resp, err := hc.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{rtt: time.Since(t)}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{rtt: time.Since(t), status: resp.StatusCode}
	if err != nil {
		r.status = 0
		return r
	}
	var cr struct {
		Output string `json:"output"`
		Report struct {
			WallNanos       int64 `json:"wall_ns"`
			ProgramCacheHit bool  `json:"program_cache_hit"`
		} `json:"report"`
	}
	if r.status == http.StatusOK && json.Unmarshal(raw, &cr) == nil {
		r.output, r.hit, r.wallNS = cr.Output, cr.Report.ProgramCacheHit, cr.Report.WallNanos
	} else {
		r.status = -r.status // refused or undecodable: never a success
	}
	if keepBody {
		r.body = raw
	}
	return r
}

// outputs holds the first output served for each key; every later one
// must be byte-identical, across clients, repeats and passes.
type outputs map[int]string

func (b *bench) checkReplies(seen outputs, script []int, replies []reply) {
	var bad int64
	for i, r := range replies {
		k := script[i]
		if r.status != http.StatusOK {
			bad++
			continue
		}
		if first, ok := seen[k]; !ok {
			seen[k] = r.output
		} else if r.output != first {
			bad++
		}
	}
	b.attempt(int64(len(replies)), bad, fmt.Sprintf("%d requests refused, failed or answered with different bytes", bad))
}

// checkTraces runs every distinct served output and its uncompiled input
// on the simulator; their emit traces must match.
func (b *bench) checkTraces(keys []serveKey, seen outputs) {
	var bad int64
	for k, out := range seen {
		ok := func() bool {
			p, err := ir.Parse(out)
			if err != nil {
				return false
			}
			sc := sim.Config{CCMBytes: keys[k].cfg.CCMBytes}
			got, err1 := sim.Run(p, "main", sc)
			want, err2 := sim.Run(keys[k].input, "main", sc)
			return err1 == nil && err2 == nil && sim.TracesEqual(got.Output, want.Output)
		}()
		if !ok {
			bad++
		}
	}
	b.attempt(int64(len(seen)), bad, fmt.Sprintf("%d served outputs change the program's emit trace", bad))
}

// startCCMD starts a ccmd with default flags and returns it with its
// steal-corrected start-up time.
func (b *bench) startCCMD() (*daemon, time.Duration, error) {
	sw := startWatch()
	d, err := startDaemon(filepath.Join(b.binDir, "ccmd"))
	_, up := sw.stop()
	return d, up, err
}

// timedServe runs passes of the script, each against a fresh ccmd, until
// the run's time is up; then checks every distinct output's emit trace.
// suite_s and rps are taken per pass and reported as the median over
// passes, so the number of passes a run fits in does not weigh on them.
// Every pass sends the same requests in the same order, so each request's
// latency is first taken as its median over the passes, and p50_ms and
// p99_ms are taken over those medians. All timings are steal-corrected;
// raw pass wall times go into the result record.
func timedServe(b *bench) error {
	var keys []serveKey
	var gens []float64
	for i := 0; i < 11; i++ {
		sw := startWatch()
		var err error
		if keys, err = serveKeys(b.seed, nil); err != nil {
			return err
		}
		_, gen := sw.stop()
		gens = append(gens, gen.Seconds())
	}
	script := zipfScript(b.seed, len(keys))
	seen := outputs{}
	var starts, passes, raw, p50s, p99s, rps []float64
	var rss []float64
	var lats [][]float64
	var requests, hits int
	start := time.Now()
	// At least two passes, so no median rests on a single pass.
	for len(passes) < 2 || time.Since(start) < b.seconds {
		d, up, err := b.startCCMD()
		if err != nil {
			return err
		}
		sw := startWatch()
		replies := servePass(d.base, keys, script, serveClients, false)
		wall, corrected := sw.stop()
		rss = append(rss, peakRSSMB(d.cmd.Process.Pid))
		if err := d.stop(); err != nil {
			b.attempt(1, 1, err.Error())
		}
		b.checkReplies(seen, script, replies)
		starts = append(starts, up.Seconds())
		passes = append(passes, corrected.Seconds())
		raw = append(raw, wall.Seconds())
		rtts := make([]time.Duration, len(replies))
		for i, r := range replies {
			rtts[i] = r.rtt
			if r.hit {
				hits++
			}
		}
		ms := millis(rtts, corrected.Seconds()/wall.Seconds())
		lats = append(lats, ms)
		p50s = append(p50s, quantile(ms, 0.50))
		p99s = append(p99s, quantile(ms, 0.99))
		rps = append(rps, float64(len(replies))/corrected.Seconds())
		requests += len(replies)
	}
	b.checkTraces(keys, seen)

	lat := pointwiseMedians(lats)
	b.set("setup_s", median(gens)+median(starts), "s")
	b.set("suite_s", median(passes), "s")
	b.set("p50_ms", quantile(lat, 0.50), "ms")
	b.set("p99_ms", quantile(lat, 0.99), "ms")
	b.set("rps", median(rps), "1/s")
	b.details["pass_s"] = passes
	b.details["pass_wall_s"] = raw
	b.details["pass_p50_ms"] = p50s
	b.details["pass_p99_ms"] = p99s
	b.details["requests"] = requests
	b.details["hit_ratio"] = float64(hits) / float64(requests)
	b.details["ccmd_peak_rss_mb"] = rss
	return nil
}

// tracedServe is the traced run: one untraced pass for reference, then
// two traced passes on one connection (so hit/miss counts repeat
// exactly), and an in-process replay of the first traced pass that times
// each layer of the request path.
func tracedServe(b *bench) error {
	led := ledger{}
	keys, err := serveKeys(b.seed, led)
	if err != nil {
		return err
	}
	script := zipfScript(b.seed, len(keys))
	seen := outputs{}
	pass := func(keep bool) ([]reply, time.Duration, float64, error) {
		d, _, err := b.startCCMD()
		if err != nil {
			return nil, 0, 0, err
		}
		t := time.Now()
		replies := servePass(d.base, keys, script, 1, keep)
		wall := time.Since(t)
		rss := peakRSSMB(d.cmd.Process.Pid)
		if err := d.stop(); err != nil {
			b.attempt(1, 1, err.Error())
		}
		b.checkReplies(seen, script, replies)
		return replies, wall, rss, nil
	}
	_, plain, _, err := pass(false)
	if err != nil {
		return err
	}
	replies, wall, rss, err := pass(true)
	if err != nil {
		return err
	}
	again, _, _, err := pass(true)
	if err != nil {
		return err
	}
	c1, err := replyCounts(replies)
	if err != nil {
		return err
	}
	c2, err := replyCounts(again)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(c1, c2) {
		b.attempt(1, 1, fmt.Sprintf("counts differ between two traced passes of one seed: %+v vs %+v", c1, c2))
	} else {
		b.attempt(1, 0, "")
	}

	var rttSum, wallNS time.Duration
	var hitRTT, missRTT []float64
	var rejected int
	for i, r := range replies {
		rttSum += r.rtt
		if r.status != http.StatusOK {
			rejected++ // already counted as failed by checkReplies
			continue
		}
		wallNS += time.Duration(r.wallNS)
		ms := float64(r.rtt) / float64(time.Millisecond)
		if r.hit {
			hitRTT = append(hitRTT, ms)
			led["pipeline.lookup"] += time.Duration(r.wallNS)
		} else {
			missRTT = append(missRTT, ms)
			led["pipeline.miss"] += time.Duration(r.wallNS)
		}
		if err := replayRequest(b, led, keys[script[i]], r); err != nil {
			b.attempt(1, 1, err.Error())
		}
	}

	v := map[string]float64{}
	passLayers(v, led, c1)
	v["peak_rss_mb"] = rss
	v["workload.build_s"] = led.seconds("workload.build")
	v["pipeline.compile_s"] = wallNS.Seconds()
	v["pipeline.lookup_s"] = led.seconds("pipeline.lookup")
	v["ccmd.decode_s"] = led.seconds("ccmd.decode")
	v["ir.parse_s"] = led.seconds("ir.parse")
	v["ir.verify_s"] = led.seconds("ir.verify.request")
	v["ir.print_s"] = led.seconds("ir.print")
	v["ccmd.encode_s"] = led.seconds("ccmd.encode")
	v["ccmd.hit_rtt_ms.p50"] = median(hitRTT)
	v["ccmd.miss_rtt_ms.p50"] = median(missRTT)
	attributed := v["ccmd.decode_s"] + v["ir.parse_s"] + v["ir.verify_s"] + wallNS.Seconds() + v["ir.print_s"] + v["ccmd.encode_s"]
	v["ccmd.wait_s"] = rttSum.Seconds() - attributed
	v["ccmd.rejected"] = float64(rejected)
	v["unattributed_share"] = (wall - rttSum).Seconds() / wall.Seconds()
	v["trace_overhead_share"] = (wall - plain).Seconds() / plain.Seconds()
	b.setLayers(v)
	b.details["pass_s"] = wall.Seconds()
	b.details["untraced_pass_s"] = plain.Seconds()
	return nil
}

// replyCounts folds the reports of one pass's responses into counts.
func replyCounts(replies []reply) (counts, error) {
	c := newCounts()
	for _, r := range replies {
		if r.status != http.StatusOK {
			continue // counted as failed by checkReplies
		}
		var cr ccmd.CompileResponse
		if err := json.Unmarshal(r.body, &cr); err != nil || cr.Report == nil {
			return c, fmt.Errorf("undecodable compile response: %v", err)
		}
		c.note(cr.Report)
	}
	return c, nil
}

// replayRequest repeats one request's service-side work in-process, one
// span per layer: strict JSON decode of the request, parse and verify of
// the program, (on a miss) the pass sequence, print of the compiled
// program and JSON encode of the response. The replayed print and the
// replayed passes must reproduce the served output byte for byte.
func replayRequest(b *bench, led ledger, k serveKey, r reply) error {
	var req ccmd.CompileRequest
	var err error
	led.span("ccmd.decode", func() {
		dec := json.NewDecoder(bytes.NewReader(k.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	var p *ir.Program
	led.span("ir.parse", func() { p, err = ir.Parse(req.Program) })
	if err != nil {
		return fmt.Errorf("replay parse: %w", err)
	}
	led.span("ir.verify.request", func() { err = ir.VerifyProgram(p, ir.VerifyOptions{}) })
	if err != nil {
		return fmt.Errorf("replay verify: %w", err)
	}
	var resp ccmd.CompileResponse
	if err := json.Unmarshal(r.body, &resp); err != nil || resp.Report == nil {
		return fmt.Errorf("replay: undecodable compile response: %v", err)
	}
	if !r.hit {
		cfg, err := serveConfig(req.Config)
		if err != nil {
			return err
		}
		out, err := replayPasses(b.ctx, led, p, cfg, resp.Report.PerFunc)
		if err != nil {
			return err
		}
		if out != r.output {
			return fmt.Errorf("replayed ILOC differs from the served output")
		}
	}
	q, err := ir.Parse(r.output)
	if err != nil {
		return fmt.Errorf("replay: served output does not parse: %w", err)
	}
	var printed string
	led.span("ir.print", func() { printed = q.String() })
	if printed != r.output {
		return fmt.Errorf("replay: reprinted output differs from the served output")
	}
	var buf bytes.Buffer
	led.span("ccmd.encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err = enc.Encode(&resp)
	})
	return err
}

// serveConfig maps a request's config onto the pipeline.Config ccmd
// compiles it with (no shedding: the load never fills the queue).
func serveConfig(rc ccmd.RequestConfig) (pipeline.Config, error) {
	strat, err := pipeline.ParseStrategy(rc.Strategy)
	if err != nil {
		return pipeline.Config{}, err
	}
	return pipeline.Config{Strategy: strat, CCMBytes: rc.CCMBytes, IntRegs: rc.IntRegs, FloatRegs: rc.FloatRegs}, nil
}
