package ccmd

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The request reader. A /compile or /run body is read once into one
// buffer and walked once, bound member by member to a CompileRequest or
// a RunRequest. It accepts what encoding/json's strict decode accepts
// (DisallowUnknownFields, then a second Decode that must return io.EOF),
// produces the same values and words its errors the same way;
// FuzzDecodeRequest holds it to that. What differs is the cost: no
// second scan, no reflection, and a string of plain ASCII and the
// escapes ILOC text uses is unescaped in place, so the program text is
// copied out of the body once.

// maxNesting is encoding/json's limit on nested objects and arrays.
const maxNesting = 10000

// firstRead bounds the buffer readBody allocates before any byte has
// arrived.
const firstRead = 64 << 10

// bodyReadTimeout bounds the time a request body takes to arrive. A body
// is read before admission, so without it a client that sends part of a
// body holds a handler and its buffer outside MaxInflight for as long as
// it keeps the connection open.
const bodyReadTimeout = 30 * time.Second

// decodeJSON reads one request body into dst with a hard size and time
// bound and strict member checking: 415 for another media type, 413 for
// a body over maxBytes, 408 for one that has not arrived within timeout,
// 400 for everything else the reader refuses.
func decodeJSON[T any](w http.ResponseWriter, r *http.Request, maxBytes int64, timeout time.Duration, read func(*reader, *T), dst *T) *APIError {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		// RFC 9110 §8.3.1: type and subtype are case-insensitive.
		if mt, _, _ := strings.Cut(ct, ";"); !strings.EqualFold(strings.TrimSpace(mt), "application/json") {
			return &APIError{Status: http.StatusUnsupportedMediaType, Code: CodeBadRequest,
				Message: fmt.Sprintf("unsupported Content-Type %q (want application/json)", ct)}
		}
	}
	// The deadline bounds the body alone, so it is cleared once the body
	// is read: a later read of the connection failing at it would cancel
	// the request's context, and a compile running past it would end as a
	// 499. Only a writer without deadlines, such as httptest's recorder,
	// refuses them.
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(timeout))
	body, err := readBody(http.MaxBytesReader(w, r.Body, maxBytes), r.ContentLength)
	_ = rc.SetReadDeadline(time.Time{})
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return &APIError{Status: http.StatusRequestEntityTooLarge, Code: CodeBadRequest,
				Message: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit)}
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return &APIError{Status: http.StatusRequestTimeout, Code: CodeBadRequest,
				Message: fmt.Sprintf("request body not received within %s", timeout)}
		}
		return malformed(err)
	}
	return decodeRequest(body, read, dst)
}

// readBody reads a body to its end into one buffer. The buffer starts at
// the declared length, but at most firstRead bytes, and grows at most
// twofold as bytes arrive, so a client that declares more than it sends
// holds no more than firstRead bytes, or twice what it sent.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	size := 512
	if declared > 0 {
		size = int(min(declared, firstRead)) + 1 // room for the read that finds the end
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			grow := cap(buf)
			if rest := declared - int64(len(buf)); rest >= 0 && rest < int64(grow) {
				grow = int(rest) + 1
			}
			buf = slices.Grow(buf, grow)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeRequest walks body, which it overwrites, into dst. Its errors
// rank as encoding/json's do: a syntax error anywhere in the value
// first, then the first refused member, then anything after the value.
func decodeRequest[T any](body []byte, read func(*reader, *T), dst *T) *APIError {
	r := &reader{buf: body}
	if r.next(); r.pos == len(body) {
		return malformed(io.EOF)
	}
	read(r, dst)
	if err := cmp.Or(r.err, r.bad); err != nil {
		return malformed(err)
	}
	if r.next(); r.pos < len(body) {
		return &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest,
			Message: "request body must be a single JSON object"}
	}
	return nil
}

func malformed(err error) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: CodeBadRequest,
		Message: "malformed request body: " + err.Error()}
}

// reader walks one body. A syntax error ends the walk; a member the
// request types refuse (unknown, or of the wrong type) is recorded and
// skipped, and the walk goes on, since a later syntax error outranks it.
type reader struct {
	buf   []byte
	pos   int
	depth int   // objects and arrays open at pos
	err   error // the syntax error, if any
	bad   error // the first refused member, if any
}

func (r *reader) compileRequest(q *CompileRequest) {
	r.object("", "ccmd.CompileRequest", func(name []byte) bool {
		switch {
		case binds(name, "tenant"):
			r.str(&q.Tenant, "CompileRequest.tenant")
		case binds(name, "program"):
			r.str(&q.Program, "CompileRequest.program")
		case binds(name, "config"):
			r.requestConfig(&q.Config)
		case binds(name, "options"):
			r.requestOptions(&q.Options)
		default:
			return false
		}
		return true
	})
}

func (r *reader) requestConfig(c *RequestConfig) {
	r.object("CompileRequest.config", "ccmd.RequestConfig", func(name []byte) bool {
		switch {
		case binds(name, "strategy"):
			r.str(&c.Strategy, "RequestConfig.config.strategy")
		case binds(name, "ccm_bytes"):
			r.int64(&c.CCMBytes, "RequestConfig.config.ccm_bytes")
		case binds(name, "int_regs"):
			r.int(&c.IntRegs, "RequestConfig.config.int_regs")
		case binds(name, "float_regs"):
			r.int(&c.FloatRegs, "RequestConfig.config.float_regs")
		case binds(name, "no_opt"):
			r.bool(&c.DisableOptimizer, "RequestConfig.config.no_opt")
		case binds(name, "no_compact"):
			r.bool(&c.DisableCompaction, "RequestConfig.config.no_compact")
		case binds(name, "verify_passes"):
			r.bool(&c.VerifyPasses, "RequestConfig.config.verify_passes")
		case binds(name, "strict"):
			r.bool(&c.Strict, "RequestConfig.config.strict")
		case binds(name, "diff_check"):
			r.str(&c.DiffCheck, "RequestConfig.config.diff_check")
		case binds(name, "diff_vectors"):
			r.int(&c.DiffVectors, "RequestConfig.config.diff_vectors")
		default:
			return false
		}
		return true
	})
}

func (r *reader) requestOptions(o *RequestOptions) {
	r.object("CompileRequest.options", "ccmd.RequestOptions", func(name []byte) bool {
		switch {
		case binds(name, "trace"):
			r.bool(&o.Trace, "RequestOptions.options.trace")
		case binds(name, "repro"):
			r.bool(&o.Repro, "RequestOptions.options.repro")
		default:
			return false
		}
		return true
	})
}

func (r *reader) runRequest(q *RunRequest) {
	r.object("", "ccmd.RunRequest", func(name []byte) bool {
		switch {
		case binds(name, "program"):
			r.str(&q.Program, "RunRequest.program")
		case binds(name, "entry"):
			r.str(&q.Entry, "RunRequest.entry")
		case binds(name, "ccm_bytes"):
			r.int64(&q.CCMBytes, "RunRequest.ccm_bytes")
		case binds(name, "mem_cost"):
			r.int(&q.MemCost, "RunRequest.mem_cost")
		case binds(name, "max_steps"):
			r.int64(&q.MaxSteps, "RunRequest.max_steps")
		case binds(name, "max_depth"):
			r.int(&q.MaxDepth, "RunRequest.max_depth")
		default:
			return false
		}
		return true
	})
}

// binds reports whether a member name binds to the field named want, as
// encoding/json binds it: under Unicode case folding.
func binds(name []byte, want string) bool { return strings.EqualFold(string(name), want) }

// object reads a struct: member reads the value of each name it binds
// and reports false for a name it does not, an unknown field. field and
// typ name the struct in the error for a value that is not an object.
func (r *reader) object(field, typ string, member func(name []byte) bool) {
	if r.next() != '{' {
		r.other(field, typ)
		return
	}
	r.members(func(name []byte) {
		if !member(name) {
			r.refuse(fmt.Errorf("json: unknown field %q", name))
			r.skip()
		}
	})
}

// members walks the object at the read position, handing value each
// member's name; value reads the member's value.
func (r *reader) members(value func(name []byte)) {
	r.open()
	if r.next() == '}' {
		r.close()
		return
	}
	for r.err == nil {
		if r.next() != '"' {
			r.fail("looking for beginning of object key string")
			return
		}
		name := r.quoted()
		if r.next() != ':' {
			r.fail("after object key")
			return
		}
		r.pos++
		value(name)
		switch r.next() {
		case ',':
			r.pos++
		case '}':
			r.close()
			return
		default:
			r.fail("after object key:value pair")
			return
		}
	}
}

func (r *reader) str(dst *string, field string) {
	if r.next() == '"' {
		*dst = string(r.quoted())
		return
	}
	r.other(field, "string")
}

func (r *reader) bool(dst *bool, field string) {
	switch r.next() {
	case 't':
		r.literal("true")
		*dst = true
	case 'f':
		r.literal("false")
		*dst = false
	default:
		r.other(field, "bool")
	}
}

func (r *reader) int(dst *int, field string) {
	if n, ok := r.integer(strconv.IntSize, field, "int"); ok {
		*dst = int(n)
	}
}

func (r *reader) int64(dst *int64, field string) {
	if n, ok := r.integer(64, field, "int64"); ok {
		*dst = n
	}
}

// integer reads a number that fits bits as a signed integer; a fraction,
// an exponent or a value out of range is refused.
func (r *reader) integer(bits int, field, typ string) (int64, bool) {
	if c := r.next(); c != '-' && (c < '0' || c > '9') {
		r.other(field, typ)
		return 0, false
	}
	lit := r.number()
	if r.err != nil {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	if err != nil {
		r.mismatch("number "+string(lit), field, typ)
		return 0, false
	}
	return n, true
}

// other reads a value of a type the member does not take. null leaves
// the member as it was; anything else is refused and skipped.
func (r *reader) other(field, typ string) {
	what := "number"
	switch r.next() {
	case 'n':
		r.literal("null")
		return
	case '"':
		what = "string"
	case 't', 'f':
		what = "bool"
	case '{':
		what = "object"
	case '[':
		what = "array"
	}
	r.mismatch(what, field, typ)
	r.skip()
}

func (r *reader) mismatch(what, field, typ string) {
	if field == "" {
		r.refuse(errors.New("json: cannot unmarshal " + what + " into Go value of type " + typ))
	} else {
		r.refuse(errors.New("json: cannot unmarshal " + what + " into Go struct field " + field + " of type " + typ))
	}
}

func (r *reader) refuse(err error) {
	if r.bad == nil {
		r.bad = err
	}
}

// skip reads past one value of any type, checking only its syntax.
func (r *reader) skip() {
	switch c := r.next(); {
	case c == '{':
		r.members(func([]byte) { r.skip() })
	case c == '[':
		r.open()
		if r.next() == ']' {
			r.close()
			return
		}
		for r.err == nil {
			r.skip()
			switch r.next() {
			case ',':
				r.pos++
			case ']':
				r.close()
				return
			default:
				r.fail("after array element")
				return
			}
		}
	case c == '"':
		r.quoted()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	default:
		r.fail("looking for beginning of value")
	}
}

// open enters the object or array whose bracket is at the read position.
func (r *reader) open() {
	if r.depth++; r.depth > maxNesting {
		r.fail("exceeded max depth")
		return
	}
	r.pos++
}

func (r *reader) close() {
	r.depth--
	r.pos++
}

// next skips white space and returns the byte at the read position, or
// 0 at the end of the body.
func (r *reader) next() byte {
	for ; r.pos < len(r.buf); r.pos++ {
		switch c := r.buf[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// fail records a syntax error at the read position and ends the walk.
func (r *reader) fail(context string) {
	if r.err != nil {
		return
	}
	if r.pos == len(r.buf) {
		r.err = io.ErrUnexpectedEOF
	} else {
		r.err = errors.New("invalid character " + quoteChar(r.buf[r.pos]) + " " + context)
	}
	r.pos = len(r.buf)
}

// quoteChar formats c as encoding/json's syntax errors do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// literal reads the word true, false or null at the read position.
func (r *reader) literal(word string) {
	for i := 0; i < len(word); i++ {
		if r.pos == len(r.buf) || r.buf[r.pos] != word[i] {
			r.fail("in literal " + word + " (expecting " + quoteChar(word[i]) + ")")
			return
		}
		r.pos++
	}
}

// number reads the number at the read position and returns its text.
func (r *reader) number() []byte {
	b, start := r.buf, r.pos
	digits := func() {
		for r.pos < len(b) && '0' <= b[r.pos] && b[r.pos] <= '9' {
			r.pos++
		}
	}
	if b[r.pos] == '-' {
		r.pos++
	}
	switch {
	case r.pos < len(b) && b[r.pos] == '0':
		r.pos++
	case r.pos < len(b) && '1' <= b[r.pos] && b[r.pos] <= '9':
		digits()
	default:
		r.fail("in numeric literal")
		return nil
	}
	if r.pos < len(b) && b[r.pos] == '.' {
		if r.pos++; r.pos == len(b) || b[r.pos] < '0' || b[r.pos] > '9' {
			r.fail("after decimal point in numeric literal")
			return nil
		}
		digits()
	}
	if r.pos < len(b) && (b[r.pos] == 'e' || b[r.pos] == 'E') {
		if r.pos++; r.pos < len(b) && (b[r.pos] == '+' || b[r.pos] == '-') {
			r.pos++
		}
		if r.pos == len(b) || b[r.pos] < '0' || b[r.pos] > '9' {
			r.fail("in exponent of numeric literal")
			return nil
		}
		digits()
	}
	return b[start:r.pos]
}

// plain marks the bytes a string holds as they are: ASCII from the
// space up, but for the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape maps the byte after a backslash to the byte it stands for, or
// to 0 for u and the bytes no escape may use.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// lo and hi are the low and the high bit of each byte of a word.
const lo, hi = 0x0101010101010101, 0x8080808080808080

// flagged sets the high bit of each byte of x that is below the space, a
// quote, a backslash or past ASCII. A byte after a flagged one may be
// flagged too, but not one before: the lowest flagged byte is the
// first such byte.
func flagged(x uint64) uint64 {
	return ((x - ' '*lo) | ((x ^ '"'*lo) - lo) | ((x ^ '\\'*lo) - lo) | x) & hi
}

// quoted reads the string at the read position and returns its value.
// The buffer being the reader's own, the value is unescaped in place:
// plain bytes are copied eight at a time while a word holds no other,
// and the escapes ILOC text uses one at a time. From its first \u
// escape or byte past ASCII on, a string goes to unquoteRest.
func (r *reader) quoted() []byte {
	b := r.buf
	start := r.pos + 1
	w, i := start, start // the value so far is b[start:w]; i reads
	for {
		for i+8 <= len(b) {
			x := binary.LittleEndian.Uint64(b[i:])
			if flagged(x) != 0 {
				break
			}
			binary.LittleEndian.PutUint64(b[w:], x)
			w, i = w+8, i+8
		}
		for i < len(b) && plain[b[i]] {
			b[w] = b[i]
			w, i = w+1, i+1
		}
		switch {
		case i < len(b) && b[i] == '"':
			r.pos = i + 1
			return b[start:w]
		case i+1 < len(b) && b[i] == '\\' && unescape[b[i+1]] != 0:
			b[w] = unescape[b[i+1]]
			w, i = w+1, i+2
		default:
			return r.unquoteRest(start, w, i)
		}
	}
}

// unquoteRest finishes the string whose value so far quoted unescaped to
// b[start:w] and whose byte at from begins a \u escape, a byte past
// ASCII or a syntax error: it checks the rest, then appends encoding/json's
// value of it, so that UTF-8 coercion and the surrogate rules are
// encoding/json's own.
func (r *reader) unquoteRest(start, w, from int) []byte {
	b := r.buf
	for i := from; ; i++ {
		if i == len(b) {
			r.pos = i
			r.fail("")
			return nil
		}
		switch c := b[i]; {
		case c == '"':
			value := append([]byte(nil), b[start:w]...) // the quote below may land on its last byte
			b[from-1] = '"'
			var rest string
			if err := json.Unmarshal(b[from-1:i+1], &rest); err != nil {
				r.err = err // not reached: the loop checked the string's syntax
			}
			r.pos = i + 1
			return append(value, rest...)
		case c < ' ':
			r.pos = i
			r.fail("in string literal")
			return nil
		case c != '\\':
		case i+1 == len(b):
			r.pos = i + 1
			r.fail("")
			return nil
		case b[i+1] == 'u':
			for k := i + 2; k < i+6; k++ {
				if k == len(b) || !isHex(b[k]) {
					r.pos = k
					r.fail(`in \u hexadecimal character escape`)
					return nil
				}
			}
			i += 5
		case unescape[b[i+1]] == 0:
			r.pos = i + 1
			r.fail("in string escape code")
			return nil
		default:
			i++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
