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
	"strconv"
	"strings"
	"time"
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
func (e Entry) String() string {
	ident, user := e.Ident, e.AuthUser
	if ident == "" {
		ident = "-"
	}
	if user == "" {
		user = "-"
	}
	size := "-"
	if e.Bytes >= 0 {
		size = strconv.FormatInt(e.Bytes, 10)
	}
	return fmt.Sprintf("%s %s %s [%s] \"%s %s %s\" %d %s",
		e.Host, ident, user, e.Time.Format(TimeLayout),
		e.Method, e.Path, e.Proto, e.Status, size)
}

// Parse parses one CLF line.
func Parse(line string) (Entry, error) {
	var e Entry
	rest := strings.TrimSpace(line)
	if rest == "" {
		return e, fmt.Errorf("%w: empty", ErrMalformed)
	}

	var ok bool
	if e.Host, rest, ok = cutField(rest); !ok {
		return e, fmt.Errorf("%w: missing host", ErrMalformed)
	}
	if e.Ident, rest, ok = cutField(rest); !ok {
		return e, fmt.Errorf("%w: missing ident", ErrMalformed)
	}
	if e.AuthUser, rest, ok = cutField(rest); !ok {
		return e, fmt.Errorf("%w: missing authuser", ErrMalformed)
	}

	if !strings.HasPrefix(rest, "[") {
		return e, fmt.Errorf("%w: missing timestamp", ErrMalformed)
	}
	end := strings.IndexByte(rest, ']')
	if end < 0 {
		return e, fmt.Errorf("%w: unterminated timestamp", ErrMalformed)
	}
	ts, err := time.Parse(TimeLayout, rest[1:end])
	if err == nil && ts.Nanosecond() != 0 {
		// time.Parse accepts a fractional second the layout does not
		// have, and String could not write it back.
		err = errors.New("fractional seconds")
	}
	if err != nil {
		return e, fmt.Errorf("%w: bad timestamp %q: %v", ErrMalformed, rest[1:end], err)
	}
	e.Time = ts
	rest = strings.TrimSpace(rest[end+1:])

	if !strings.HasPrefix(rest, `"`) {
		return e, fmt.Errorf("%w: missing request line", ErrMalformed)
	}
	end = strings.IndexByte(rest[1:], '"')
	if end < 0 {
		return e, fmt.Errorf("%w: unterminated request line", ErrMalformed)
	}
	reqLine := rest[1 : 1+end]
	rest = strings.TrimSpace(rest[end+2:])

	parts := strings.Fields(reqLine)
	switch len(parts) {
	case 3:
		e.Method, e.Path, e.Proto = parts[0], parts[1], parts[2]
	case 2:
		// HTTP/0.9 simple requests have no protocol field.
		e.Method, e.Path, e.Proto = parts[0], parts[1], "HTTP/0.9"
	default:
		return e, fmt.Errorf("%w: bad request line %q", ErrMalformed, reqLine)
	}

	var statusStr string
	if statusStr, rest, ok = cutField(rest); !ok {
		return e, fmt.Errorf("%w: missing status", ErrMalformed)
	}
	if e.Status, err = strconv.Atoi(statusStr); err != nil {
		return e, fmt.Errorf("%w: bad status %q", ErrMalformed, statusStr)
	}

	sizeStr, _, _ := cutField(rest)
	if sizeStr == "" || sizeStr == "-" {
		e.Bytes = -1
	} else if e.Bytes, err = strconv.ParseInt(sizeStr, 10, 64); err != nil || e.Bytes < 0 {
		// "-" is the only way to log an unknown size: String writes
		// every negative size as "-", so "-5" would not survive a
		// write and a re-read.
		return e, fmt.Errorf("%w: bad size %q", ErrMalformed, sizeStr)
	}
	return e, nil
}

// cutField splits off the first whitespace-delimited field.
func cutField(s string) (field, rest string, ok bool) {
	s = strings.TrimLeft(s, " \t")
	if s == "" {
		return "", "", false
	}
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, "", true
	}
	return s[:i], strings.TrimLeft(s[i:], " \t"), true
}

// Reader streams entries from an access log. Malformed lines are counted
// and skipped rather than aborting the whole read, matching how log miners
// treat dirty logs.
type Reader struct {
	sc      *bufio.Scanner
	skipped int
	line    int
}

// NewReader returns a Reader over r. Lines longer than 1 MiB are rejected.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{sc: sc}
}

// Next returns the next well-formed entry, or io.EOF when the log is
// exhausted. I/O errors are returned as-is.
func (r *Reader) Next() (Entry, error) {
	for r.sc.Scan() {
		r.line++
		text := strings.TrimSpace(r.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		e, err := Parse(text)
		if err != nil {
			r.skipped++
			continue
		}
		return e, nil
	}
	if err := r.sc.Err(); err != nil {
		return Entry{}, err
	}
	return Entry{}, io.EOF
}

// ReadAll consumes the remaining entries.
func (r *Reader) ReadAll() ([]Entry, error) {
	var out []Entry
	for {
		e, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
}

// Skipped reports how many malformed lines were dropped so far.
func (r *Reader) Skipped() int { return r.skipped }

// Writer emits entries as CLF lines.
type Writer struct {
	w  *bufio.Writer
	nw int
}

// NewWriter returns a Writer on w. Call Flush when done.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one entry.
func (w *Writer) Write(e Entry) error {
	if _, err := w.w.WriteString(e.String()); err != nil {
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	w.nw++
	return nil
}

// Count reports the number of entries written.
func (w *Writer) Count() int { return w.nw }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }
