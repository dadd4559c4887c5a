package ccmd

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"ccmem/internal/obs"
	"ccmem/internal/pipeline"
)

// The /compile response writer. A 200 body is appended member by member
// into one pooled buffer and written once, with its Content-Length, so
// net/http does not chunk it. The bytes are those json.Encoder with
// SetEscapeHTML(false) writes for the *CompileResponse, its newline
// included: the same members in the same order under the same omitempty
// rules, map keys sorted, strings escaped and floats formatted as
// encoding/json does. TestEncodeResponseParity and FuzzEncodeString hold
// it to encoding/json, which every other response still goes through.
// What differs is the cost: no reflection, map keys sorted in a pooled
// scratch slice, and the output string, most of the body, escaped eight
// plain bytes at a time.

// maxPooledBody caps the buffers the pool keeps, so that one large
// response does not stay pinned in it.
const maxPooledBody = 1 << 20

// encoder appends one response body.
type encoder struct {
	buf  []byte
	keys []string // the keys of the map being encoded, sorted
	err  error    // a value encoding/json would refuse
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// errNotFinite stands for the error encoding/json returns for a NaN or
// infinite float.
var errNotFinite = errors.New("float is not finite")

// writeCompileResponse writes resp as a 200.
func writeCompileResponse(w http.ResponseWriter, resp *CompileResponse) {
	e := encoders.Get().(*encoder)
	defer e.release()
	if e.compileResponse(resp); e.err != nil {
		// encoding/json refuses the value too, and answers as it always did.
		writeJSON(w, http.StatusOK, resp)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.buf) // a failed write leaves no one to answer
}

// release returns e to the pool unless its buffer outgrew the cap.
func (e *encoder) release() {
	if cap(e.buf) > maxPooledBody {
		return
	}
	clear(e.keys[:cap(e.keys)])
	e.buf, e.keys, e.err = e.buf[:0], e.keys[:0], nil
	encoders.Put(e)
}

func (e *encoder) compileResponse(r *CompileResponse) {
	e.buf = append(e.buf, '{')
	e.str(`"output":`, r.Output)
	e.key(`"report":`)
	e.report(r.Report)
	if len(r.Trace) > 0 {
		e.key(`"trace":`)
		dst := bytes.NewBuffer(e.buf)
		if err := json.Compact(dst, r.Trace); err != nil {
			e.err = err
		}
		e.buf = dst.Bytes()
	}
	e.buf = append(e.buf, "}\n"...)
}

func (e *encoder) report(r *pipeline.Report) {
	if r == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '{')
	e.str(`"strategy":`, r.Strategy)
	e.int(`"workers":`, int64(r.Workers))
	e.intOmit(`"compiles":`, r.Compiles)
	e.int(`"funcs":`, int64(r.Funcs))
	e.int(`"wall_ns":`, r.WallNanos)
	if r.ProgramCacheHit {
		e.bool(`"program_cache_hit":`, true)
	}
	e.intOmit(`"program_hits":`, r.ProgramHits)
	e.key(`"passes":`)
	if r.Passes == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.buf = append(e.buf, '[')
		for i := range r.Passes {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.passStat(&r.Passes[i])
		}
		e.buf = append(e.buf, ']')
	}
	encodeMap(e, `"per_func":`, r.PerFunc, (*encoder).funcReport)
	e.key(`"cache":`)
	e.cacheStats(&r.Cache)
	e.intOmit(`"failures":`, r.Failures)
	e.intOmit(`"degraded":`, r.Degraded)
	if len(r.Repros) > 0 {
		e.key(`"repros":`)
		e.buf = append(e.buf, '[')
		for i, path := range r.Repros {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = appendString(e.buf, path)
		}
		e.buf = append(e.buf, ']')
	}
	if r.ReproError != "" {
		e.str(`"repro_error":`, r.ReproError)
	}
	e.intOmit(`"diff_funcs_checked":`, r.DiffFuncsChecked)
	e.intOmit(`"diff_runs":`, r.DiffRuns)
	e.intOmit(`"diff_inconclusive":`, r.DiffInconclusive)
	e.intOmit(`"divergences":`, r.Divergences)
	encodeMap(e, `"divergent_passes":`, r.DivergentPasses, (*encoder).int64)
	e.intOmit(`"spans":`, r.Spans)
	if s := r.Metrics; s != nil {
		e.key(`"metrics":`)
		e.buf = append(e.buf, '{')
		encodeMap(e, `"counters":`, s.Counters, (*encoder).int64)
		encodeMap(e, `"gauges":`, s.Gauges, (*encoder).int64)
		encodeMap(e, `"histograms":`, s.Histograms, (*encoder).histogram)
		e.buf = append(e.buf, '}')
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) passStat(p *pipeline.PassStat) {
	e.buf = append(e.buf, '{')
	e.str(`"name":`, p.Name)
	e.int(`"runs":`, p.Runs)
	e.int(`"wall_ns":`, p.WallNanos)
	e.int(`"instrs_before":`, p.InstrsBefore)
	e.int(`"instrs_after":`, p.InstrsAfter)
	e.buf = append(e.buf, '}')
}

func (e *encoder) funcReport(f pipeline.FuncReport) {
	e.buf = append(e.buf, '{')
	e.int(`"spill_bytes_naive":`, f.SpillBytesNaive)
	e.int(`"spill_bytes_compacted":`, f.SpillBytesCompacted)
	e.int(`"ccm_bytes":`, f.CCMBytes)
	e.int(`"spilled_ranges":`, int64(f.SpilledRanges))
	e.int(`"promoted_webs":`, int64(f.PromotedWebs))
	e.int(`"spill_webs":`, int64(f.SpillWebs))
	e.int(`"instrs":`, int64(f.Instrs))
	e.bool(`"front_cache_hit":`, f.FrontCacheHit)
	e.bool(`"back_cache_hit":`, f.BackCacheHit)
	e.intOmit(`"attempts":`, int64(f.Attempts))
	if f.Degraded != "" {
		e.str(`"degraded":`, f.Degraded)
	}
	if f.FailedPass != "" {
		e.str(`"failed_pass":`, f.FailedPass)
	}
	if f.Error != "" {
		e.str(`"error":`, f.Error)
	}
	e.buf = append(e.buf, '}')
}

func (e *encoder) cacheStats(c *pipeline.CacheStats) {
	e.buf = append(e.buf, '{')
	e.int(`"hits":`, c.Hits)
	e.int(`"misses":`, c.Misses)
	e.int(`"evictions":`, c.Evictions)
	e.int(`"entries":`, int64(c.Entries))
	e.float(`"hit_rate":`, c.HitRate)
	e.key(`"memory":`)
	e.buf = append(e.buf, '{')
	e.tierStats(&c.Memory)
	e.buf = append(e.buf, '}')

	d := &c.Disk
	e.key(`"disk":`)
	e.buf = append(e.buf, '{')
	e.tierStats(&d.TierStats) // embedded: its members flatten in place
	e.int(`"writes":`, d.Writes)
	e.int(`"corruptions":`, d.Corruptions)
	e.int(`"quarantines":`, d.Quarantines)
	e.int(`"read_errors":`, d.ReadErrors)
	e.int(`"write_errors":`, d.WriteErrors)
	e.int(`"swept_temps":`, d.SweptTemps)
	e.int(`"degraded_to_memory":`, d.DegradedToMemory)
	e.int(`"bytes":`, d.Bytes)
	if d.Degraded {
		e.bool(`"degraded":`, true)
	}
	e.buf = append(e.buf, '}')

	r := &c.Remote
	e.key(`"remote":`)
	e.buf = append(e.buf, '{')
	e.int(`"hits":`, r.Hits)
	e.int(`"misses":`, r.Misses)
	e.float(`"hit_rate":`, r.HitRate)
	e.int(`"puts":`, r.Puts)
	e.int(`"put_drops":`, r.PutDrops)
	e.int(`"put_errors":`, r.PutErrors)
	e.int(`"retries":`, r.Retries)
	e.int(`"timeouts":`, r.Timeouts)
	e.int(`"net_errors":`, r.NetErrors)
	e.int(`"http_errors":`, r.HTTPErrors)
	e.int(`"corruptions":`, r.Corruptions)
	e.int(`"skipped":`, r.Skipped)
	e.int(`"trips":`, r.Trips)
	e.int(`"probes":`, r.Probes)
	if r.Circuit != "" {
		e.str(`"circuit":`, r.Circuit)
	}
	e.buf = append(e.buf, "}}"...)
}

func (e *encoder) tierStats(t *pipeline.TierStats) {
	e.int(`"hits":`, t.Hits)
	e.int(`"misses":`, t.Misses)
	e.int(`"evictions":`, t.Evictions)
	e.int(`"entries":`, int64(t.Entries))
}

func (e *encoder) histogram(h obs.HistogramSummary) {
	e.buf = append(e.buf, '{')
	e.int(`"count":`, h.Count)
	e.int(`"sum_ns":`, h.SumNanos)
	e.int(`"p50_ns":`, h.P50Nanos)
	e.int(`"p95_ns":`, h.P95Nanos)
	if len(h.Buckets) > 0 {
		e.key(`"buckets":`)
		e.buf = append(e.buf, '[')
		for i, b := range h.Buckets {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.buf = append(e.buf, '{')
			e.int(`"le_ns":`, b.LENanos)
			e.int(`"count":`, b.Count)
			e.buf = append(e.buf, '}')
		}
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, '}')
}

// encodeMap appends m as the member name, its keys in the order
// encoding/json sorts them, or nothing when m is empty: every map of a
// response is omitempty.
func encodeMap[V any](e *encoder, name string, m map[string]V, value func(*encoder, V)) {
	if len(m) == 0 {
		return
	}
	e.keys = e.keys[:0]
	for k := range m {
		e.keys = append(e.keys, k)
	}
	slices.Sort(e.keys)
	e.key(name)
	e.buf = append(e.buf, '{')
	for i, k := range e.keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(appendString(e.buf, k), ':')
		value(e, m[k])
	}
	e.buf = append(e.buf, '}')
}

// key appends a member's quoted name and colon, after a comma unless
// the member opens its object.
func (e *encoder) key(name string) {
	if e.buf[len(e.buf)-1] != '{' {
		e.buf = append(e.buf, ',')
	}
	e.buf = append(e.buf, name...)
}

func (e *encoder) str(name, v string) {
	e.key(name)
	e.buf = appendString(e.buf, v)
}

func (e *encoder) int(name string, v int64) {
	e.key(name)
	e.buf = strconv.AppendInt(e.buf, v, 10)
}

// intOmit appends an omitempty integer member.
func (e *encoder) intOmit(name string, v int64) {
	if v != 0 {
		e.int(name, v)
	}
}

// int64 appends a bare integer, a map member's value.
func (e *encoder) int64(v int64) { e.buf = strconv.AppendInt(e.buf, v, 10) }

func (e *encoder) bool(name string, v bool) {
	e.key(name)
	e.buf = strconv.AppendBool(e.buf, v)
}

// float appends v as encoding/json does: as ES6 formats a number, the
// shortest text that reads back as v, with an exponent only below 1e-6
// and from 1e21 up, and without a leading zero in the exponent.
func (e *encoder) float(name string, v float64) {
	e.key(name)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		e.err = errNotFinite
		return
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.buf, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 is written e-7
		b = b[:n-1]
	}
	e.buf = b
}

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping off: `\"`, `\\`, \b, \f, \n, \r and \t for those bytes, \u00XX
// for the other control bytes, \ufffd for each byte that is not part of
// valid UTF-8, and U+2028 and U+2029 escaped. Plain ASCII is skipped
// eight bytes at a time, up to the first byte of a word that flagged
// finds, the test the request reader uses.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0 // s[start:i] is yet to be appended as it is
	for i := 0; ; {
		for i+8 <= len(s) {
			if m := flagged(word(s[i:])); m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
			i += 8
		}
		for i < len(s) && plain[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		c := s[i]
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

const hexDigits = "0123456789abcdef"

// word returns the first eight bytes of s as a little-endian word.
func word(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
