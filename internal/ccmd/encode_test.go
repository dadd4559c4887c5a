package ccmd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
	"ccmem/internal/workload"
)

// referenceJSON is what writeJSON writes for v: json.Encoder with HTML
// escaping off, its newline included.
func referenceJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// appendResponse is the hand encoder's body for resp, and its refusal.
func appendResponse(resp *CompileResponse) ([]byte, error) {
	e := &encoder{}
	e.compileResponse(resp)
	return e.buf, e.err
}

// checkResponseParity: the hand encoder writes encoding/json's bytes for
// resp, or refuses what encoding/json refuses.
func checkResponseParity(t *testing.T, name string, resp *CompileResponse) {
	t.Helper()
	want, wantErr := referenceJSON(resp)
	got, gotErr := appendResponse(resp)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: the encoder's error is %v, encoding/json's %v", name, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: the bodies differ at byte %d:\nencoder:       %q\nencoding/json: %q",
			name, i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
}

// fill sets every exported field v reaches to a value encoding/json
// writes even under omitempty, each its own: n counts the values made.
// Strings carry the bytes the escaper treats apart, maps three keys out
// of order, slices two elements. A field of a kind it does not know
// fails the test, so a new field cannot go unfilled.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 1_000_003)
	case reflect.Float64:
		v.SetFloat(float64(*n) / 7)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d \"q\" \\ \t\n\x01\x7f <&> é \u2028 \xff", *n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for _, k := range []string{"zeta", "Alpha\t\"", "mid.é"} {
			e := reflect.New(v.Type().Elem()).Elem()
			fill(t, e, n)
			v.SetMapIndex(reflect.ValueOf(k), e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fill: a %s field; teach fill and the encoder its kind", v.Type())
	}
}

// replaySuite compiles every suite routine, whole program and eight
// random programs under seven configurations, the serve-zipf mix, and
// calls check with each response: first the miss, then the program-tier
// hit of the same request, traced.
func replaySuite(t *testing.T, check func(name string, resp *CompileResponse)) {
	var texts []string
	for _, r := range workload.All() {
		p, err := r.Build()
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, p.String())
	}
	for _, bp := range workload.Programs() {
		p, err := bp.Build()
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, p.String())
	}
	for i := int64(0); i < 8; i++ {
		texts = append(texts, workload.RandomProgram(i).String())
	}
	configs := []RequestConfig{
		{Strategy: "none"},
		{Strategy: "postpass", CCMBytes: 512},
		{Strategy: "postpass", CCMBytes: 1024},
		{Strategy: "postpass-ipa", CCMBytes: 512},
		{Strategy: "postpass-ipa", CCMBytes: 1024},
		{Strategy: "integrated", CCMBytes: 512},
		{Strategy: "integrated", CCMBytes: 1024},
	}
	svc := newTestService(t, nil)
	for i, text := range texts {
		for _, cfg := range configs {
			for _, trace := range []bool{false, true} {
				req := &CompileRequest{Program: text, Config: cfg, Options: RequestOptions{Trace: trace}}
				resp, apiErr := svc.Compile(context.Background(), req)
				if apiErr != nil {
					t.Fatalf("input %d %+v: %v", i, cfg, apiErr)
				}
				check(fmt.Sprintf("input %d %+v trace=%t", i, cfg, trace), resp)
			}
		}
	}
}

// TestEncodeResponseParity holds the /compile writer to encoding/json: a
// response with every field set, the zero and empty cases, the values
// encoding/json refuses, and every response of a seven-config replay of
// the suite. The first case fails as soon as a report type gains a field
// the encoder does not write.
func TestEncodeResponseParity(t *testing.T) {
	full := &CompileResponse{Output: "func main() {\nentry:\n\tret\n}\n"}
	n := 0
	fill(t, reflect.ValueOf(&full.Report).Elem(), &n)
	full.Trace = json.RawMessage("{ \"traceEvents\" : [ {\"name\": \"a <b> & c\", \"ts\": 1.5e-7} ],\n\t\"displayTimeUnit\": \"ms\" }")
	checkResponseParity(t, "every field set", full)

	// Through the handler's writer: one write, with its Content-Length.
	w := httptest.NewRecorder()
	writeCompileResponse(w, full)
	want, _ := referenceJSON(full)
	if !bytes.Equal(w.Body.Bytes(), want) || w.Code != http.StatusOK ||
		w.Header().Get("Content-Length") != strconv.Itoa(len(want)) || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("writeCompileResponse wrote %d %v and %d bytes, want 200 and encoding/json's %d", w.Code, w.Header(), w.Body.Len(), len(want))
	}

	for _, c := range []struct {
		name string
		resp *CompileResponse
	}{
		{"no report", &CompileResponse{}},
		{"zero report", &CompileResponse{Report: &pipeline.Report{}}},
		{"empty collections", &CompileResponse{Report: &pipeline.Report{
			Passes:          []pipeline.PassStat{},
			PerFunc:         map[string]pipeline.FuncReport{},
			Repros:          []string{},
			DivergentPasses: map[string]int64{},
			Metrics: &obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramSummary{
				"h": {Buckets: []obs.BucketCount{}},
			}},
		}, Trace: json.RawMessage{}}},
		{"empty snapshot", &CompileResponse{Report: &pipeline.Report{Metrics: &obs.Snapshot{}}}},
	} {
		checkResponseParity(t, c.name, c.resp)
	}

	for _, hitRate := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 1.5e-10,
		1e20, 1e21, 1.2345e300, -2.5e-9, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		checkResponseParity(t, fmt.Sprint("hit rate ", hitRate), &CompileResponse{Report: &pipeline.Report{
			Cache: pipeline.CacheStats{HitRate: hitRate}}})
	}

	// encoding/json refuses these; the writer then answers as it does.
	for name, resp := range map[string]*CompileResponse{
		"NaN":           {Report: &pipeline.Report{Cache: pipeline.CacheStats{HitRate: math.NaN()}}},
		"infinity":      {Report: &pipeline.Report{Cache: pipeline.CacheStats{Remote: pipeline.RemoteTierStats{HitRate: math.Inf(-1)}}}},
		"invalid trace": {Report: &pipeline.Report{}, Trace: json.RawMessage(`{"a":`)},
	} {
		checkResponseParity(t, name, resp)
		w := httptest.NewRecorder()
		writeCompileResponse(w, resp)
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, resp)
		if w.Code != rec.Code || !bytes.Equal(w.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("%s: writeCompileResponse wrote %d %q, writeJSON %d %q", name, w.Code, w.Body, rec.Code, rec.Body)
		}
	}

	responses := 0
	replaySuite(t, func(name string, resp *CompileResponse) {
		checkResponseParity(t, name, resp)
		responses++
	})
	t.Logf("%d replayed responses match encoding/json", responses)
}

// FuzzEncodeString holds the string escaper to encoding/json's with HTML
// escaping off. json.Marshal is no reference: it escapes <, > and &.
func FuzzEncodeString(f *testing.F) {
	var controls strings.Builder
	for c := byte(0); c < ' '; c++ {
		controls.WriteByte(c)
	}
	for _, s := range []string{
		fppppText(f),
		"func main() {\nentry:\n\tr0 = loadi 1\n\tret r0\n}\n",
		controls.String(), "\x7f", "<>&", "a<b>c&d", "\u2028\u2029", "x\u2028y\u2029z",
		"\xff", "\xc3", "\xe2\x80", "\xe2\x80\xa8\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", "caf\xc3\xa9 \xff\xfe",
		"", `"`, `\`, "12345678\"", "1234567\\8", "abcdefgh\x00", "\xf0\x9f\x98\x80 smile",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := referenceJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		want = bytes.TrimSuffix(want, []byte("\n"))
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("%q:\nencoder:       %q\nencoding/json: %q", s, got, want)
		}
	})
}

// fppppHit is the response to a program-tier hit of fpppp under the
// serve-zipf config the decode guard uses.
func fppppHit(tb testing.TB) *CompileResponse {
	tb.Helper()
	cfg := Config{Driver: pipeline.New(pipeline.Options{Workers: 1, Metrics: obs.NewRegistry()})}
	svc, err := NewService(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	req := &CompileRequest{Program: fppppText(tb), Config: RequestConfig{Strategy: "postpass", CCMBytes: 512}}
	var resp *CompileResponse
	for i := 0; i < 2; i++ {
		var apiErr *APIError
		if resp, apiErr = svc.Compile(context.Background(), req); apiErr != nil {
			tb.Fatal(apiErr)
		}
	}
	if !resp.Report.ProgramCacheHit {
		tb.Fatal("the second compile of fpppp missed the program tier")
	}
	return resp
}

// TestAllocGuardEncodeResponse pins the /compile writer's encoding to
// the pooled buffer: with the pool warm, encoding a fpppp hit (its
// report's per-function map and registry snapshot included) allocates
// nothing, where json.Encoder made 106 allocations of 45 KB.
func TestAllocGuardEncodeResponse(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops pooled buffers at random; verify.sh runs this guard without it")
	}
	resp := fppppHit(t)
	encode := func() {
		e := encoders.Get().(*encoder)
		e.compileResponse(resp)
		if e.err != nil {
			t.Fatal(e.err)
		}
		e.release()
	}
	encode()
	allocs := testing.AllocsPerRun(10, encode)
	if want, _ := referenceJSON(resp); len(want) > maxPooledBody {
		t.Fatalf("the fpppp response is %d bytes, over the %d the pool keeps", len(want), maxPooledBody)
	}
	t.Logf("encoding a fpppp hit: %.0f allocs", allocs)
	if allocs != 0 {
		t.Errorf("encoding a fpppp hit with the pool warm made %.0f allocations, want 0", allocs)
	}
}

func BenchmarkEncodeResponse(b *testing.B) {
	resp := fppppHit(b)
	want, err := referenceJSON(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := encoders.Get().(*encoder)
			e.compileResponse(resp)
			e.release()
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(want)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceJSON(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
