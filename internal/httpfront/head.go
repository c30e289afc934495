package httpfront

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"sync/atomic"
)

// maxHeadBytes bounds one response head: the status line, the fields
// and the blank line that ends them.
const maxHeadBytes = 64 << 10

// valueSlots is the number of field values a backend's connections
// keep to hand out again, a power of two; maxSharedLen bounds the
// length of a value kept, and so the table's memory.
const (
	valueSlots   = 4096
	maxSharedLen = 128
)

// ows is the optional whitespace around a field value (RFC 7230 §3.2.3).
const ows = " \t"

// Heads that http.ReadResponse accepts and this parser refuses, each on
// purpose. FuzzReadHead lists them by name.
var (
	// errHeadTooLarge: the head is longer than maxHeadBytes.
	errHeadTooLarge = errors.New("httpfront: response head too large")
	// errVersion: a backend that answers in a version other than
	// HTTP/1.0 or HTTP/1.1 is not one this client can frame.
	errVersion = errors.New("httpfront: response version is neither HTTP/1.0 nor HTTP/1.1")
	// errStatusCode: the status code is not three digits from 100 to 999
	// (ReadResponse takes "+99" or "000").
	errStatusCode = errors.New("httpfront: response status code is not three digits from 100 to 999")
	// errFieldNameSpace: RFC 7230 §3.2.4 forbids whitespace between a
	// field name and its colon; ReadResponse keeps such a name as it is.
	errFieldNameSpace = errors.New("httpfront: whitespace in a response field name")
	// errDuplicateLength: more than one Content-Length field, even with
	// equal values, which ReadResponse folds into one.
	errDuplicateLength = errors.New("httpfront: more than one Content-Length field")
)

func malformed(what string, b []byte) error {
	return fmt.Errorf("httpfront: malformed response head: %s %q", what, b)
}

// field is one response head field. vals holds the value as one
// element with capacity one; once handed out it is never written
// again, so a header map may keep it.
type field struct {
	key  string
	vals []string
}

// head is one response head and the framing of the body after it
// (RFC 7230 §3.3.3).
type head struct {
	status int
	minor  int // HTTP/1.minor
	fields []field
	// length is the body's length: 0 for no body, -1 when the body is
	// chunked or runs to EOF.
	length   int64
	chunked  bool
	untilEOF bool
	// close reports that the backend takes no further request on the
	// connection.
	close bool
	// trailer holds a chunked body's trailer fields once it is read.
	trailer http.Header
}

// headReader reads response heads off one connection, reusing its
// buffers from head to head.
type headReader struct {
	br  *bufio.Reader
	max int
	// long holds a line longer than br's buffer.
	long []byte
	// raw holds the value of the field being read.
	raw []byte
	// shared are values seen recently on this connection and the others
	// that share the table, so that a value that repeats is handed out
	// again instead of allocated again.
	shared *valueTable
}

func newHeadReader(br *bufio.Reader, max int, shared *valueTable) headReader {
	return headReader{br: br, max: max, shared: shared}
}

// read reads one head into h. method is the request's: a HEAD response
// has no body whatever its fields say.
func (p *headReader) read(h *head, method string) error {
	left := p.max
	line, err := p.line(&left)
	if err != nil {
		return err
	}
	if err := h.parseStatus(line); err != nil {
		return err
	}
	h.fields, h.trailer = h.fields[:0], nil
	for first := true; ; first = false {
		line, err := p.line(&left)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			break
		}
		if first && (line[0] == ' ' || line[0] == '\t') {
			return malformed("leading whitespace on the first field", line)
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return malformed("field without a colon", line)
		}
		key, err := fieldKey(line[:colon])
		if err != nil {
			return err
		}
		p.raw = append(p.raw[:0], bytes.TrimRight(line[colon+1:], ows)...)
		// A line that starts with whitespace continues the field
		// (obs-fold); each is joined on with one space, as RFC 7230
		// §3.2.4 lets a recipient do.
		for {
			next, _ := p.br.Peek(1)
			if len(next) == 0 || (next[0] != ' ' && next[0] != '\t') {
				break
			}
			more, err := p.line(&left)
			if err != nil {
				return err
			}
			p.raw = append(append(p.raw, ' '), bytes.Trim(more, ows)...)
		}
		v := bytes.TrimLeft(p.raw, ows)
		for _, c := range v {
			if !validValueByte(c) {
				return malformed("field value", v)
			}
		}
		h.fields = append(h.fields, field{key: key, vals: p.shared.value(v)})
	}
	return h.frame(method)
}

// line returns the next line without its "\n" or "\r\n", charging it
// to the head's budget. The slice is good until the next read.
func (p *headReader) line(left *int) ([]byte, error) {
	b, err := p.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		p.long = append(p.long[:0], b...)
		for err == bufio.ErrBufferFull && len(p.long) <= *left {
			b, err = p.br.ReadSlice('\n')
			p.long = append(p.long, b...)
		}
		b = p.long
	}
	if *left -= len(b); *left < 0 {
		return nil, errHeadTooLarge
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	b = b[:len(b)-1]
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b, nil
}

// valueTable hands out again the field values that a backend's
// connections have read before. It is direct-mapped: a value's hash
// picks its one slot, and a new value takes the slot over, so a value
// that never repeats evicts one other, not the set. Connections use it
// concurrently; a value, once handed out, is never written again.
type valueTable struct {
	seed  maphash.Seed
	slots [valueSlots]atomic.Pointer[[1]string]
}

func newValueTable() *valueTable {
	return &valueTable{seed: maphash.MakeSeed()}
}

// value returns the kept value equal to v, or else a new one, which it
// keeps when v is no longer than maxSharedLen. A new value costs two
// allocations, its string and its one-element array.
func (t *valueTable) value(v []byte) []string {
	if len(v) > maxSharedLen {
		return (&[1]string{string(v)})[:]
	}
	slot := &t.slots[maphash.Bytes(t.seed, v)%valueSlots]
	if kept := slot.Load(); kept != nil && kept[0] == string(v) {
		return kept[:]
	}
	fresh := &[1]string{string(v)}
	slot.Store(fresh)
	return fresh[:]
}

// parseStatus reads "HTTP/1.x nnn reason" the way http.ReadResponse
// splits it, with errVersion and errStatusCode stricter.
func (h *head) parseStatus(line []byte) error {
	proto, rest, ok := bytes.Cut(line, []byte(" "))
	if !ok {
		return malformed("status line", line)
	}
	code, _, _ := bytes.Cut(bytes.TrimLeft(rest, " "), []byte(" "))
	if len(code) != 3 {
		return malformed("status code", code)
	}
	h.status = 0
	for _, c := range code {
		if c < '0' || c > '9' {
			return errStatusCode
		}
		h.status = h.status*10 + int(c-'0')
	}
	if h.status < 100 {
		return errStatusCode
	}
	switch string(proto) {
	case "HTTP/1.1":
		h.minor = 1
	case "HTTP/1.0":
		h.minor = 0
	default:
		return errVersion
	}
	return nil
}

// frame decides the body's framing from the status, the request method
// and the fields (RFC 7230 §3.3.3), with the checks and precedence of
// http.ReadResponse: a Transfer-Encoding other than one "chunked" is
// refused from HTTP/1.1 and ignored from HTTP/1.0, a Content-Length
// must be a number, and a chunked body may not announce framing fields
// as trailers.
func (h *head) frame(method string) error {
	var te, length string
	nte, nlength, closing, keepAlive := 0, 0, false, false
	for _, f := range h.fields {
		switch f.key {
		case "Transfer-Encoding":
			te, nte = f.vals[0], nte+1
		case "Content-Length":
			length, nlength = f.vals[0], nlength+1
		case "Connection":
			closing = closing || listContains(f.vals[0], "close")
			keepAlive = keepAlive || listContains(f.vals[0], "keep-alive")
		}
	}
	h.close = closing || h.minor == 0 && !keepAlive
	h.chunked, h.untilEOF = false, false
	if nte > 0 && h.minor == 1 {
		if nte != 1 || !asciiEqualFold(te, "chunked") {
			return malformed("Transfer-Encoding", []byte(te))
		}
		h.chunked = true
	}
	if nlength > 1 {
		return errDuplicateLength
	}
	n := int64(-1)
	if nlength == 1 {
		// Decimal digits up to 2^63-1, surrounding whitespace allowed.
		u, err := strconv.ParseUint(textproto.TrimString(length), 10, 63)
		if err != nil {
			return malformed("Content-Length", []byte(length))
		}
		n = int64(u)
	}
	if h.chunked {
		for _, f := range h.fields {
			if f.key == "Trailer" && listContains(f.vals[0], "Transfer-Encoding", "Trailer", "Content-Length") {
				return malformed("trailer announcement", []byte(f.vals[0]))
			}
		}
	}
	switch {
	case method == http.MethodHead || h.status < 200 || h.status == http.StatusNoContent || h.status == http.StatusNotModified:
		h.length, h.chunked = 0, false
	case h.chunked:
		h.length = -1
	case n >= 0:
		h.length = n
	default:
		h.length, h.untilEOF, h.close = -1, true, true
	}
	return nil
}

// readTrailer reads the trailer section after a chunked body's last
// chunk as http.ReadResponse does, bounded by the reader's buffer.
func readTrailer(br *bufio.Reader) (http.Header, error) {
	buf, err := br.Peek(2)
	if string(buf) == "\r\n" {
		br.Discard(2)
		return nil, nil
	}
	if len(buf) < 2 {
		return nil, io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	// A trailer must end inside the buffer, so a backend cannot stream
	// an endless one.
	for n := 4; ; n++ {
		buf, err := br.Peek(n)
		if bytes.HasSuffix(buf, []byte("\r\n\r\n")) {
			break
		}
		if err != nil {
			return nil, errors.New("httpfront: trailer longer than the read buffer")
		}
	}
	hdr, err := textproto.NewReader(br).ReadMIMEHeader()
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return http.Header(hdr), err
}

// fieldKey checks a field name and returns it in canonical form,
// interned when it is a common one.
func fieldKey(k []byte) (string, error) {
	if len(k) == 0 {
		return "", malformed("empty field name", k)
	}
	for _, c := range k {
		if c == ' ' {
			return "", errFieldNameSpace
		}
		if !validFieldByte(c) {
			return "", malformed("field name", k)
		}
	}
	upper := true
	for i, c := range k {
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		k[i] = c
		upper = c == '-'
	}
	if s, ok := commonKeys[string(k)]; ok {
		return s, nil
	}
	return string(k), nil
}

// commonKeys interns the field names backends commonly send.
var commonKeys = func() map[string]string {
	m := make(map[string]string)
	for _, k := range []string{
		"Accept-Ranges", "Age", "Cache-Control", "Connection", "Content-Encoding",
		"Content-Language", "Content-Length", "Content-Location", "Content-Range",
		"Content-Type", "Date", "Etag", "Expires", "Keep-Alive", "Last-Modified",
		"Location", "Pragma", "Retry-After", "Server", "Set-Cookie", "Trailer",
		"Transfer-Encoding", "Vary", "Www-Authenticate", "X-Content-Type-Options",
		CacheStateHeader, "X-Prord-Server", ShedHeader,
	} {
		m[k] = k
	}
	return m
}()

// validFieldByte reports whether c may appear in a field name (an RFC
// 7230 token).
func validFieldByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	switch c {
	case '!', '#', '$', '%', '&', '\'', '*', '+', '-', '.', '^', '_', '`', '|', '~':
		return true
	}
	return false
}

// validValueByte reports whether c may appear in a field value: visible
// ASCII, space, tab, or obs-text.
func validValueByte(c byte) bool {
	return c == '\t' || c >= 0x20 && c != 0x7f
}

// listContains reports whether an element of the comma-separated
// value v, trimmed, is one of names, ignoring ASCII case.
func listContains(v string, names ...string) bool {
	for v != "" {
		var t string
		t, v, _ = strings.Cut(v, ",")
		t = textproto.TrimString(t)
		for _, name := range names {
			if asciiEqualFold(t, name) {
				return true
			}
		}
	}
	return false
}

// asciiEqualFold compares s and t ignoring ASCII case only.
func asciiEqualFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		a, b := s[i], t[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}
