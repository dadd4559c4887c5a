package ccmd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ccmem/internal/workload"
)

// strictJSON is the check the request reader replaced: encoding/json
// with DisallowUnknownFields, then a second Decode that must return
// io.EOF. It returns the refusal's message, or "" for a body it accepts.
func strictJSON(body []byte, dst any) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return "malformed request body: " + err.Error()
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return "request body must be a single JSON object"
	}
	return ""
}

// checkParity decodes body both ways: the reader must refuse what
// strictJSON refuses, in the same words, and accept the rest into the
// same value.
func checkParity[T any](t *testing.T, body []byte, read func(*reader, *T)) {
	t.Helper()
	var want, got T
	wantMsg := strictJSON(body, &want)
	gotMsg := ""
	if apiErr := decodeRequest(bytes.Clone(body), read, &got); apiErr != nil {
		gotMsg = apiErr.Message
		if apiErr.Status != http.StatusBadRequest || apiErr.Code != CodeBadRequest {
			t.Fatalf("body %q: refused as %d %s, want 400 %s", body, apiErr.Status, apiErr.Code, CodeBadRequest)
		}
	}
	if gotMsg != wantMsg {
		t.Fatalf("body %q as %T:\nreader:        %q\nencoding/json: %q", body, got, gotMsg, wantMsg)
	}
	if wantMsg == "" && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q as %T:\nreader:        %+v\nencoding/json: %+v", body, got, got, want)
	}
}

// serveZipfBody is a POST /compile body as the serve-zipf benchmark
// sends it.
func serveZipfBody(tb testing.TB, program string) []byte {
	tb.Helper()
	body, err := json.Marshal(CompileRequest{Program: program, Config: RequestConfig{Strategy: "postpass", CCMBytes: 512}})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

func fppppText(tb testing.TB) string {
	tb.Helper()
	r, ok := workload.Lookup("fpppp")
	if !ok {
		tb.Fatal("no routine fpppp")
	}
	p, err := r.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return p.String()
}

// FuzzDecodeRequest holds the request reader to the encoding/json check
// it replaced, for any bytes and both request types.
func FuzzDecodeRequest(f *testing.F) {
	dotprod, err := os.ReadFile("../../testdata/dotprod.iloc")
	if err != nil {
		f.Fatal(err)
	}
	readme, err := json.Marshal(string(dotprod))
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		string(serveZipfBody(f, workload.RandomProgram(8).String())),
		// The README's curl bodies.
		`{
  "tenant":  "team-a",
  "program": ` + string(readme) + `,
  "config":  {"strategy": "postpass", "ccm_bytes": 512, "verify_passes": true},
  "options": {"trace": true, "repro": true}
}`,
		`{"program": "...", "ccm_bytes": 512}`,
		"null", "{}", " \t\r\n{} \n", "", " ", "nul",
		// Repeated and case-folded members: a repeat overwrites, a
		// repeated object merges, and names bind under Unicode folding.
		`{"program":"a","PROGRAM":"b","Program":"c"}`,
		`{"config":{"strategy":"none","ccm_bytes":8},"config":{"ccm_bytes":16,"strict":true}}`,
		`{"config":{"ſtrategy":"postpass","CCM_BYTES":512},"OPTIONS":{"Trace":true}}`,
		`{"ENTRY":"f","Max_Depth":3,"ccm_bytes":8,"MEM_COST":2,"max_steps":9}`,
		`{"pro\u0067ram":"x","\u0063onfig":{}}`,
		`{"program":null,"config":null,"options":{"trace":null},"tenant":null}`,
		// Escapes: the simple ones, paired and lone surrogates, invalid UTF-8.
		`{"program":"a\tb\nc\"d\\e\/f\rg\bh\fi"}`,
		`{"program":"\ud83d\ude00 smile"}`,
		`{"program":"lone \ud83d high"}`,
		`{"program":"lone \ude00 low"}`,
		`{"program":"a\n\u0041\tb\u00e9"}`,
		"{\"program\":\"bad \xff\xfe utf-8\"}",
		"{\"program\":\"caf\xc3\xa9\",\"entry\":\"\xe2\x82\"}",
		"{\"\xffprogram\":1}",
		// Integers refuse fractions, exponents and overflow; -0 is 0.
		`{"config":{"ccm_bytes":1.0}}`,
		`{"config":{"ccm_bytes":1e2}}`,
		`{"config":{"int_regs":-0}}`,
		`{"max_steps":9223372036854775808}`,
		`{"max_steps":-9223372036854775808,"max_depth":9223372036854775807}`,
		`{"config":{"diff_vectors":-12345678901234567890123456789012345}}`,
		// Wrong value types, and unknown members inside config.
		`{"program":5}`, `{"program":true}`, `{"program":{"a":1}}`, `{"program":["a"]}`,
		`{"config":[]}`, `{"config":"x"}`, `{"config":7}`, `{"options":{"trace":1}}`,
		`{"config":{"no_opt":"true"}}`, `{"ccm_bytes":"8"}`,
		`[]`, `"x"`, `5`, `true`, `-0.5e+3`,
		`{"config":{"turbo":true}}`, `{"config":{"workers":2}}`, `{"config":{"timeout_ms":5}}`,
		`{"turbo":{"a":[1,2.5,{"b":null}],"c":"\u0000"},"program":"x"}`,
		`{"turbo":1,"program":5}`,
		`{"program":5,"turbo":1}`,
		// Trailing data.
		`{"program":"x"}{}`, `{"program":"x"} extra`, `null x`, `nullx`, `{"program":"x"}]`,
		`{"turbo":1} {`,
		// Syntax errors.
		`{"program":"x"`, `{"program":"x\q"}`, `{"program":"\u12g4"}`, "{\"program\":\"a\nb\"}",
		`{"a":tru}`, `{"a":-}`, `{"a":01}`, `{"a":1.}`, `{"a":1e}`, `{"a":1e+}`, `{,}`, `{"a":1,}`,
		`{"a" 1}`, `{"a":1 "b":2}`, `{"a":[1,]}`, `{"a":[1 2]}`, `{'a':1}`, "\xef\xbb\xbf{}",
		`{"turbo":1,"program":"x`, `{"program":"x\`,
		// Nesting up to encoding/json's limit, and one past it.
		`{"x":` + strings.Repeat("[", maxNesting-1) + strings.Repeat("]", maxNesting-1) + `}`,
		`{"x":` + strings.Repeat("[", maxNesting) + strings.Repeat("]", maxNesting) + `}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParity(t, body, (*reader).compileRequest)
		checkParity(t, body, (*reader).runRequest)
	})
}

// TestAllocGuardDecodeRequest pins the reader's allocations on the
// serve-zipf bodies of fpppp and of a random program: the body buffer,
// one copy of the program text, and a constant. The buffer is the body's
// length when its declared length is at most firstRead, and at most
// twice it when the buffer grows as bytes arrive. encoding/json made 21
// allocations of 449 KB for fpppp's 96 KB body and 17 of 23 KB for the
// random program's 4 KB: a buffer it grew by doubling, an unescaped copy
// of the program and a string of that copy.
func TestAllocGuardDecodeRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds allocations; verify.sh runs this guard without it")
	}
	for name, text := range map[string]string{"fpppp": fppppText(t), "random": testProgram(t, 8)} {
		body := serveZipfBody(t, text)
		// Everything but the decode is made before the measured runs.
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/compile", rd)
		req.Header.Set("Content-Type", "application/json")
		w := deadlineRecorder{httptest.NewRecorder()}
		var q CompileRequest
		decode := func() {
			rd.Reset(body)
			q = CompileRequest{}
			if apiErr := decodeJSON(w, req, 4<<20, bodyReadTimeout, (*reader).compileRequest, &q); apiErr != nil {
				t.Fatal(apiErr)
			}
		}
		if decode(); q.Program != text || q.Config != (RequestConfig{Strategy: "postpass", CCMBytes: 512}) {
			t.Fatalf("%s: decoded a %d-byte program and %+v", name, len(q.Program), q.Config)
		}
		const runs = 10
		allocs := testing.AllocsPerRun(runs, decode)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode()
		}
		runtime.ReadMemStats(&after)
		allocated := int((after.TotalAlloc - before.TotalAlloc) / runs)
		buf := len(body)
		if buf > firstRead {
			buf *= 2
		}
		t.Logf("%s: a %d-byte body with %d bytes of program: %.0f allocs, %d bytes", name, len(body), len(text), allocs, allocated)
		if limit := buf + len(text) + 2048; allocs > 6 || allocated > limit {
			t.Errorf("%s: decoding made %.0f allocations of %d bytes, want at most 6 of %d", name, allocs, allocated, limit)
		}
	}
}

// deadlineRecorder is a recorder that takes read deadlines, as the
// server's ResponseWriter does, so that a decode measured through it
// makes the server's calls.
type deadlineRecorder struct{ *httptest.ResponseRecorder }

func (deadlineRecorder) SetReadDeadline(time.Time) error { return nil }

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

func BenchmarkDecodeRequest(b *testing.B) {
	for _, in := range []struct{ name, text string }{
		{"fpppp", fppppText(b)},
		{"random", workload.RandomProgram(8).String()},
	} {
		body := serveZipfBody(b, in.text)
		b.Run(in.name, func(b *testing.B) {
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/compile", rd)
			req.Header.Set("Content-Type", "application/json")
			w := deadlineRecorder{httptest.NewRecorder()}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				var q CompileRequest
				if apiErr := decodeJSON(w, req, 4<<20, bodyReadTimeout, (*reader).compileRequest, &q); apiErr != nil {
					b.Fatal(apiErr)
				}
			}
		})
	}
}
