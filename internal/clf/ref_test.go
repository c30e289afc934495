package clf

import (
	"bufio"
	"bytes"
	"io"
)

// The bufio.Scanner reader the block reader replaced, kept as the
// reference the differential tests compare against: the same entries,
// the same skipped count and the same bufio.ErrTooLong on a line of
// 1 MiB or more.

// refReader streams entries from an access log. Malformed lines are counted
// and skipped rather than aborting the whole read, matching how log miners
// treat dirty logs.
type refReader struct {
	sc      *bufio.Scanner
	skipped int
}

// newRefReader returns a refReader over r. Lines longer than 1 MiB are rejected.
func newRefReader(r io.Reader) *refReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &refReader{sc: sc}
}

// nextLine returns the next line that is neither blank nor a comment,
// trimmed, and false at the end of the log or on an I/O error.
func (r *refReader) nextLine() (string, bool) {
	for r.sc.Scan() {
		if text := bytes.TrimSpace(r.sc.Bytes()); len(text) > 0 && text[0] != '#' {
			return string(text), true
		}
	}
	return "", false
}

// ReadAll consumes the remaining entries. It reads every line before it
// parses any, so that it can parse straight into a slice as long as
// the log, rather than re-copying a doubling slice of entries.
func (r *refReader) ReadAll() ([]Entry, error) {
	var lines []string
	for {
		line, ok := r.nextLine()
		if !ok {
			break
		}
		lines = append(lines, line)
	}
	var out []Entry
	for i, line := range lines {
		e, err := Parse(line)
		if err != nil {
			r.skipped++
			continue
		}
		if out == nil {
			out = make([]Entry, 0, len(lines)-i)
		}
		out = append(out, e)
	}
	return out, r.sc.Err()
}

// Skipped reports how many malformed lines were dropped so far.
func (r *refReader) Skipped() int { return r.skipped }
