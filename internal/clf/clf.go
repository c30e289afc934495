// Package clf reads and writes web server access logs in the NCSA Common
// Log Format (CLF), the input format the PRORD paper's simulator consumes
// ("the simulation code takes any log file in common log format").
//
// A CLF line looks like:
//
//	host ident authuser [02/Jan/2006:15:04:05 -0700] "GET /path HTTP/1.1" 200 2326
//
// The package is deliberately forgiving on input (real-world logs are
// messy) and strict on output.
package clf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"
)

// Entry is one parsed access-log record.
type Entry struct {
	Host     string    // client host or IP
	Ident    string    // RFC 1413 identity, usually "-"
	AuthUser string    // authenticated user, usually "-"
	Time     time.Time // request completion time
	Method   string    // "GET", "POST", ...
	Path     string    // request URL path
	Proto    string    // "HTTP/1.0", "HTTP/1.1"
	Status   int       // HTTP status code
	Bytes    int64     // response size in bytes; -1 when logged as "-"
}

// TimeLayout is the strftime-style timestamp layout CLF uses.
const TimeLayout = "02/Jan/2006:15:04:05 -0700"

// ErrMalformed is wrapped by all parse errors so callers can detect bad
// lines with errors.Is.
var ErrMalformed = errors.New("clf: malformed line")

// String formats e as one CLF line (without trailing newline).
func (e Entry) String() string { return string(e.appendTo(make([]byte, 0, 128))) }

// appendTo appends e as one CLF line, without the newline, to b.
func (e *Entry) appendTo(b []byte) []byte {
	b = append(b, e.Host...)
	b = append(append(b, ' '), dash(e.Ident)...)
	b = append(append(b, ' '), dash(e.AuthUser)...)
	b = e.Time.AppendFormat(append(b, " ["...), TimeLayout)
	b = append(append(b, "] \""...), e.Method...)
	b = append(append(b, ' '), e.Path...)
	b = append(append(b, ' '), e.Proto...)
	b = strconv.AppendInt(append(b, "\" "...), int64(e.Status), 10)
	if b = append(b, ' '); e.Bytes < 0 {
		return append(b, '-')
	}
	return strconv.AppendInt(b, e.Bytes, 10)
}

// dash returns s, or "-" for the empty string.
func dash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Parse parses one CLF line.
func Parse(line string) (Entry, error) {
	var e Entry
	if f, ok := parse(strings.TrimSpace(line), &e, nil); !ok {
		return e, f.error()
	}
	return e, nil
}

// fault is why parse rejected a line: what is wrong, the text the
// message quotes when quote is set, and a bad timestamp's decoding
// error. Making one allocates nothing; only Parse turns it into an
// error.
type fault struct {
	what, text string
	quote      bool
	err        error
}

// error is the ErrMalformed error f describes.
func (f fault) error() error {
	switch {
	case f.err != nil:
		return fmt.Errorf("%w: %s %q: %v", ErrMalformed, f.what, f.text, f.err)
	case f.quote:
		return fmt.Errorf("%w: %s %q", ErrMalformed, f.what, f.text)
	}
	return fmt.Errorf("%w: %s", ErrMalformed, f.what)
}

// errFractional rejects a timestamp with a fractional second: time.Parse
// accepts one the layout does not have, and String could not write it
// back.
var errFractional = errors.New("fractional seconds")

// stamp is the last timestamp text a parse decoded and its time, so
// that the lines logged in one second decode it once.
type stamp struct {
	text string
	t    time.Time
}

// parse is Parse on a line already trimmed of surrounding white space,
// written into e; last, when not nil, caches the last timestamp. It
// reports false and the fault on a malformed line, leaving e partly
// written. On a well-formed line it allocates nothing: every string
// field of the entry is a substring of line.
func parse(rest string, e *Entry, last *stamp) (fault, bool) {
	if rest == "" {
		return fault{what: "empty"}, false
	}

	var ok bool
	if e.Host, rest, ok = cutField(rest); !ok {
		return fault{what: "missing host"}, false
	}
	if e.Ident, rest, ok = cutField(rest); !ok {
		return fault{what: "missing ident"}, false
	}
	if e.AuthUser, rest, ok = cutField(rest); !ok {
		return fault{what: "missing authuser"}, false
	}

	if !strings.HasPrefix(rest, "[") {
		return fault{what: "missing timestamp"}, false
	}
	end := strings.IndexByte(rest, ']')
	if end < 0 {
		return fault{what: "unterminated timestamp"}, false
	}
	// The zero stamp holds the empty text, which never decodes.
	if text := rest[1:end]; last != nil && text != "" && text == last.text {
		e.Time = last.t
	} else {
		ts, err := parseTime(text)
		if err == nil && ts.Nanosecond() != 0 {
			err = errFractional
		}
		if err != nil {
			return fault{what: "bad timestamp", text: text, err: err}, false
		}
		e.Time = ts
		if last != nil {
			*last = stamp{text, ts}
		}
	}
	rest = strings.TrimSpace(rest[end+1:])

	if !strings.HasPrefix(rest, `"`) {
		return fault{what: "missing request line"}, false
	}
	end = strings.IndexByte(rest[1:], '"')
	if end < 0 {
		return fault{what: "unterminated request line"}, false
	}
	reqLine := rest[1 : 1+end]
	rest = strings.TrimSpace(rest[end+2:])

	parts, n := splitRequest(reqLine)
	switch n {
	case 3:
		e.Method, e.Path, e.Proto = parts[0], parts[1], parts[2]
	case 2:
		// HTTP/0.9 simple requests have no protocol field.
		e.Method, e.Path, e.Proto = parts[0], parts[1], "HTTP/0.9"
	default:
		return fault{what: "bad request line", text: reqLine, quote: true}, false
	}

	var statusStr string
	if statusStr, rest, ok = cutField(rest); !ok {
		return fault{what: "missing status"}, false
	}
	var err error
	if e.Status, err = strconv.Atoi(statusStr); err != nil {
		return fault{what: "bad status", text: statusStr, quote: true}, false
	}

	sizeStr, _, _ := cutField(rest)
	if sizeStr == "" || sizeStr == "-" {
		e.Bytes = -1
	} else if e.Bytes, err = strconv.ParseInt(sizeStr, 10, 64); err != nil || e.Bytes < 0 {
		// "-" is the only way to log an unknown size: String writes
		// every negative size as "-", so "-5" would not survive a
		// write and a re-read.
		return fault{what: "bad size", text: sizeStr, quote: true}, false
	}
	return fault{}, true
}

// cutField splits off the first field delimited by spaces or tabs.
func cutField(s string) (field, rest string, ok bool) {
	i := skipBlanks(s, 0)
	if i == len(s) {
		return "", "", false
	}
	j := i
	for j < len(s) && s[j] != ' ' && s[j] != '\t' {
		j++
	}
	return s[i:j], s[skipBlanks(s, j):], true
}

// skipBlanks returns the index of the first byte of s at or after i
// that is neither a space nor a tab.
func skipBlanks(s string, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	return i
}

// splitRequest splits a request line into its white-space separated
// words the way strings.Fields does: n is the number of words, and
// parts holds the first three. A line of printable ASCII and spaces is
// split on its spaces without allocating; any other line, one with a
// tab, a control byte or a non-ASCII byte, goes to strings.Fields
// itself, which also splits on Unicode spaces such as U+0085 and U+00A0.
func splitRequest(s string) (parts [3]string, n int) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf {
			words := strings.Fields(s)
			copy(parts[:], words)
			return parts, len(words)
		}
	}
	for {
		for s != "" && s[0] == ' ' {
			s = s[1:]
		}
		if s == "" {
			return parts, n
		}
		end := strings.IndexByte(s, ' ')
		if end < 0 {
			end = len(s)
		}
		if n < len(parts) {
			parts[n] = s[:end]
		}
		n++
		s = s[end:]
	}
}

// parseTime is time.Parse(TimeLayout, s). The canonical shape
// "dd/Mon/yyyy:hh:mm:ss ±hhmm", with a day that every month has and an
// offset below a day, is decoded by hand; any other string, including
// the ones time.Parse accepts too (a lowercase month, a one-digit
// day, a fractional second, an offset of +2400), goes to time.Parse.
func parseTime(s string) (time.Time, error) {
	if t, ok := parseCanonicalTime(s); ok {
		return t, nil
	}
	return time.Parse(TimeLayout, s)
}

// parseCanonicalTime decodes the canonical shape of TimeLayout and
// reports false on anything else. Like time.Parse, it places the result
// in time.Local when the local zone has the logged offset at that
// instant, and in an unnamed fixed zone otherwise.
func parseCanonicalTime(s string) (time.Time, bool) {
	if len(s) != len(TimeLayout) || s[2] != '/' || s[6] != '/' || s[11] != ':' ||
		s[14] != ':' || s[17] != ':' || s[20] != ' ' {
		return time.Time{}, false
	}
	month := monthNumber(s[3:6])
	day, ok1 := twoDigits(s, 0)
	century, ok2 := twoDigits(s, 7)
	yy, ok3 := twoDigits(s, 9)
	hour, ok4 := twoDigits(s, 12)
	minute, ok5 := twoDigits(s, 15)
	sec, ok6 := twoDigits(s, 18)
	offHour, ok7 := twoDigits(s, 22)
	offMin, ok8 := twoDigits(s, 24)
	if month == 0 || !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7 && ok8) ||
		day < 1 || day > 28 || hour > 23 || minute > 59 || sec > 59 || offHour > 23 || offMin > 59 {
		return time.Time{}, false
	}
	off := (offHour*60 + offMin) * 60
	switch s[21] {
	case '+':
	case '-':
		off = -off
	default:
		return time.Time{}, false
	}
	t := time.Date(100*century+yy, month, day, hour, minute, sec, 0, time.UTC).Add(-time.Duration(off) * time.Second)
	local := t.In(time.Local)
	if _, localOff := local.Zone(); localOff == off {
		return local, true
	}
	return t.In(time.FixedZone("", off)), true
}

// twoDigits decodes the two ASCII digits at s[i:i+2].
func twoDigits(s string, i int) (int, bool) {
	hi, lo := s[i]-'0', s[i+1]-'0'
	return int(hi)*10 + int(lo), hi <= 9 && lo <= 9
}

// monthNumber maps the three-letter month names time.Format writes to
// their month, and anything else to 0.
func monthNumber(s string) time.Month {
	switch s {
	case "Jan":
		return time.January
	case "Feb":
		return time.February
	case "Mar":
		return time.March
	case "Apr":
		return time.April
	case "May":
		return time.May
	case "Jun":
		return time.June
	case "Jul":
		return time.July
	case "Aug":
		return time.August
	case "Sep":
		return time.September
	case "Oct":
		return time.October
	case "Nov":
		return time.November
	case "Dec":
		return time.December
	}
	return 0
}

// Reader reads an access log. Malformed lines are counted and skipped
// rather than aborting the whole read, matching how log miners treat
// dirty logs.
type Reader struct {
	r       io.Reader
	skipped int
}

// NewReader returns a Reader over r. A line of maxLine bytes or more is
// rejected.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// maxLine is the length, newline excluded, at which a line is too long
// to read: 1 MiB, the line limit of a bufio.Scanner with a 1 MiB buffer,
// so that a log reads the same as it does line by line.
const maxLine = 1 << 20

// minChunk is the least log one parse worker is given, so that a small
// log is parsed as one chunk.
const minChunk = 64 << 10

// ReadAll reads the rest of the log and returns its well-formed entries
// in log order, or nil if there are none. Blank lines and lines that
// start with '#' are ignored. A line of maxLine bytes or more ends the
// read with bufio.ErrTooLong, and an I/O error ends it with that error;
// either way the entries before it are returned.
//
// The log is read into one string, sized up front when r reports its
// Len, and every entry's fields are substrings of it. Its lines are
// parsed in newline-aligned chunks, one per GOMAXPROCS, each into its
// own range of one slice of entries.
func (r *Reader) ReadAll() ([]Entry, error) {
	var b strings.Builder
	if l, ok := r.r.(interface{ Len() int }); ok {
		b.Grow(l.Len())
	}
	_, err := io.Copy(&b, r.r)
	block := b.String()
	entries, tooLong := r.parseBlock(block, min(runtime.GOMAXPROCS(0), 1+len(block)/minChunk))
	if tooLong {
		return entries, bufio.ErrTooLong
	}
	return entries, err
}

// parseBlock parses the lines of block on the given number of workers
// and returns the entries before the first line too long to read, and
// whether there was one.
func (r *Reader) parseBlock(block string, workers int) ([]Entry, bool) {
	// Chunk c is block[bounds[c]:bounds[c+1]], whole lines, and its
	// entries go to out[first[c]:first[c+1]], one place per line.
	bounds := make([]int, workers+1)
	first := make([]int, workers+1)
	bounds[workers] = len(block)
	for c := 1; c <= workers; c++ {
		if c < workers {
			at := max(c*len(block)/workers, bounds[c-1])
			if at > 0 && at < len(block) {
				if i := strings.IndexByte(block[at-1:], '\n'); i >= 0 {
					at += i
				} else {
					at = len(block)
				}
			}
			bounds[c] = at
		}
		chunk := block[bounds[c-1]:bounds[c]]
		first[c] = first[c-1] + strings.Count(chunk, "\n")
		if chunk != "" && chunk[len(chunk)-1] != '\n' {
			first[c]++
		}
	}
	if first[workers] == 0 {
		return nil, false
	}
	out := make([]Entry, first[workers])
	results := make([]chunkResult, workers)
	var wg sync.WaitGroup
	for c := workers - 1; c >= 0; c-- {
		run := func() { results[c] = parseChunk(block[bounds[c]:bounds[c+1]], out[first[c]:first[c+1]]) }
		if c == 0 {
			run()
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	// Each chunk's entries move down to follow the previous chunk's,
	// closing the places of its blank, comment and malformed lines.
	n, tooLong := 0, false
	for c, res := range results {
		n += copy(out[n:], out[first[c]:first[c]+res.n])
		r.skipped += res.skipped
		if tooLong = res.tooLong; tooLong {
			break
		}
	}
	if n == 0 {
		return nil, tooLong
	}
	return out[:n], tooLong
}

// chunkResult is what parseChunk found in its chunk.
type chunkResult struct {
	n, skipped int  // entries written and malformed lines skipped
	tooLong    bool // the chunk ends early at a line too long to read
}

// parseChunk parses the lines of chunk into dst, one place per line,
// and stops at the first line too long to read. Each line is parsed in
// its place, and a timestamp repeated from the line before is decoded
// once.
func parseChunk(chunk string, dst []Entry) chunkResult {
	var res chunkResult
	var last stamp
	for chunk != "" {
		line := chunk
		if i := strings.IndexByte(chunk, '\n'); i >= 0 {
			line, chunk = chunk[:i], chunk[i+1:]
		} else {
			chunk = ""
		}
		if len(line) >= maxLine {
			res.tooLong = true
			break
		}
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		if _, ok := parse(line, &dst[res.n], &last); !ok {
			res.skipped++
			continue
		}
		res.n++
	}
	return res
}

// Skipped reports how many malformed lines were dropped so far.
func (r *Reader) Skipped() int { return r.skipped }

// Writer emits entries as CLF lines.
type Writer struct {
	w   *bufio.Writer
	nw  int
	buf []byte // the line being written, reused
}

// NewWriter returns a Writer on w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one entry, as String formats it, and a newline.
func (w *Writer) Write(e Entry) error {
	w.buf = append(e.appendTo(w.buf[:0]), '\n')
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.nw++
	return nil
}

// Count reports the number of entries written.
func (w *Writer) Count() int { return w.nw }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }
