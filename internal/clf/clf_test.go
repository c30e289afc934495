package clf

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

const sample = `127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] "GET /apache_pb.gif HTTP/1.0" 200 2326`

func TestParseSample(t *testing.T) {
	e, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if e.Host != "127.0.0.1" || e.Ident != "-" || e.AuthUser != "frank" {
		t.Fatalf("identity fields wrong: %+v", e)
	}
	if e.Method != "GET" || e.Path != "/apache_pb.gif" || e.Proto != "HTTP/1.0" {
		t.Fatalf("request fields wrong: %+v", e)
	}
	if e.Status != 200 || e.Bytes != 2326 {
		t.Fatalf("status/size wrong: %+v", e)
	}
	want := time.Date(2000, 10, 10, 13, 55, 36, 0, time.FixedZone("", -7*3600))
	if !e.Time.Equal(want) {
		t.Fatalf("time = %v, want %v", e.Time, want)
	}
}

func TestParseDashSize(t *testing.T) {
	e, err := Parse(`h - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.1" 304 -`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bytes != -1 {
		t.Fatalf("Bytes = %d, want -1 for dash size", e.Bytes)
	}
}

func TestParseHTTP09(t *testing.T) {
	e, err := Parse(`h - - [10/Oct/2000:13:55:36 -0700] "GET /x" 200 10`)
	if err != nil {
		t.Fatal(err)
	}
	if e.Proto != "HTTP/0.9" {
		t.Fatalf("Proto = %q, want HTTP/0.9", e.Proto)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"onlyhost",
		`h - - "GET / HTTP/1.1" 200 5`, // no timestamp
		`h - - [bad time] "GET / HTTP/1.1" 200 5`,                    // bad timestamp
		`h - - [10/Oct/2000:13:55:36 -0700] GET / 200 5`,             // unquoted request
		`h - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.1" abc 5`,  // bad status
		`h - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.1" 200 xx`, // bad size
		`h - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.1" 200 -5`, // negative size
		`h - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.1"`,        // missing status
		`h - - [10/Oct/2000:13:55:36 -0700] "G E T / HTTP/1.1" 200 5`,
	}
	for _, line := range bad {
		if _, err := Parse(line); !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse(%q) error = %v, want ErrMalformed", line, err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	e, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(e.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", e.String(), err)
	}
	if again.String() != e.String() {
		t.Fatalf("round trip mismatch:\n%s\n%s", e.String(), again.String())
	}
}

func TestRoundTripProperty(t *testing.T) {
	zone := time.FixedZone("", 3600)
	f := func(host uint16, path uint16, status uint8, size uint32, sec int32) bool {
		e := Entry{
			Host:   "h" + strings.Repeat("x", int(host%5)),
			Ident:  "-",
			Method: "GET",
			Path:   "/p" + strings.Repeat("a", int(path%7)),
			Proto:  "HTTP/1.1",
			Status: 100 + int(status)%500,
			Bytes:  int64(size),
			Time:   time.Unix(int64(sec), 0).In(zone),
		}
		got, err := Parse(e.String())
		if err != nil {
			return false
		}
		return got.Host == e.Host && got.Path == e.Path &&
			got.Status == e.Status && got.Bytes == e.Bytes &&
			got.Time.Equal(e.Time)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse: Parse never panics, and an entry it accepts writes out as
// a line that parses back to an equal entry. The committed corpus in
// testdata/fuzz/FuzzParse names each input that once broke the
// round trip.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add(`h - - [10/Oct/2000:13:55:36 -0700] "GET / HTTP/1.1" 304 -`)
	f.Add(`h - - [10/Oct/2000:13:55:36 -0700] "GET /x" 200 10`)
	f.Add(`s3.10.0.0.1 - - [01/Jul/2006:00:00:00 +0000] "GET /g0/p0.html HTTP/1.1" 200 4096`)
	f.Fuzz(func(t *testing.T, line string) {
		e, err := Parse(line)
		if err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("Parse(%q) error %v does not wrap ErrMalformed", line, err)
			}
			return
		}
		again, err := Parse(e.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, whose line %q does not parse: %v", line, e, e.String(), err)
		}
		_, off := e.Time.Zone()
		_, againOff := again.Time.Zone()
		if !e.Time.Equal(again.Time) || off != againOff {
			t.Fatalf("Parse(%q): time %v reads back as %v", line, e.Time, again.Time)
		}
		// fields drops Entry's String method, so a mismatch prints the
		// fields themselves rather than two identical formatted lines.
		type fields Entry
		e.Time, again.Time = time.Time{}, time.Time{}
		if again != e {
			t.Fatalf("Parse(%q) = %+v reads back as %+v", line, fields(e), fields(again))
		}
	})
}

func TestReaderSkipsMalformed(t *testing.T) {
	log := sample + "\n" +
		"garbage line\n" +
		"# comment\n" +
		"\n" +
		sample + "\n"
	r := NewReader(strings.NewReader(log))
	entries, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	if r.Skipped() != 1 {
		t.Fatalf("Skipped = %d, want 1", r.Skipped())
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if entries, err := r.ReadAll(); entries != nil || err != nil || r.Skipped() != 0 {
		t.Fatalf("ReadAll on empty input = %v, %v with %d skipped; want nil, nil, 0", entries, err, r.Skipped())
	}
}

func TestWriterReaderPipeline(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	e, _ := Parse(sample)
	for i := 0; i < 10; i++ {
		e.Status = 200 + i
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 10 {
		t.Fatalf("Count = %d, want 10", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("read back %d entries, want 10", len(entries))
	}
	for i, got := range entries {
		if got.Status != 200+i {
			t.Fatalf("entry %d status = %d, want %d", i, got.Status, 200+i)
		}
	}
}

func TestEmptyIdentFormatsAsDash(t *testing.T) {
	e := Entry{Host: "h", Method: "GET", Path: "/", Proto: "HTTP/1.1",
		Status: 200, Bytes: 1, Time: time.Unix(0, 0).UTC()}
	s := e.String()
	if !strings.HasPrefix(s, "h - - [") {
		t.Fatalf("empty ident/user should format as dashes: %q", s)
	}
}

// TestParseErrorText pins the message Parse gives each kind of
// malformed line.
func TestParseErrorText(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{"", "clf: malformed line: empty"},
		{"   ", "clf: malformed line: empty"},
		{"h", "clf: malformed line: missing ident"},
		{"h -", "clf: malformed line: missing authuser"},
		{"h - -", "clf: malformed line: missing timestamp"},
		{"h - - 01/Jul/2006:00:00:00 +0000]", "clf: malformed line: missing timestamp"},
		{"h - - [01/Jul/2006:00:00:00 +0000", "clf: malformed line: unterminated timestamp"},
		{"h - - [31/Feb/2006:00:00:00 +0000] \"GET / HTTP/1.0\" 200 1", "clf: malformed line: bad timestamp \"31/Feb/2006:00:00:00 +0000\": parsing time \"31/Feb/2006:00:00:00 +0000\": day out of range"},
		{"h - - [01/Jul/2006:00:00:00.5 +0000] \"GET / HTTP/1.0\" 200 1", "clf: malformed line: bad timestamp \"01/Jul/2006:00:00:00.5 +0000\": fractional seconds"},
		{"h - - [01/Jul/2006:00:00:00 +0000] GET / HTTP/1.0 200 1", "clf: malformed line: missing request line"},
		{"h - - [01/Jul/2006:00:00:00 +0000] \"GET / HTTP/1.0 200 1", "clf: malformed line: unterminated request line"},
		{"h - - [01/Jul/2006:00:00:00 +0000] \"\" 200 1", "clf: malformed line: bad request line \"\""},
		{"h - - [01/Jul/2006:00:00:00 +0000] \"GET\" 200 1", "clf: malformed line: bad request line \"GET\""},
		{"h - - [01/Jul/2006:00:00:00 +0000] \"GET / HTTP/1.0\"", "clf: malformed line: missing status"},
		{"h - - [01/Jul/2006:00:00:00 +0000] \"GET / HTTP/1.0\" 2x0 1", "clf: malformed line: bad status \"2x0\""},
		{"h - - [01/Jul/2006:00:00:00 +0000] \"GET / HTTP/1.0\" 200 -5", "clf: malformed line: bad size \"-5\""},
		{"h - - [01/Jul/2006:00:00:00 +0000] \"GET / HTTP/1.0\" 200 x", "clf: malformed line: bad size \"x\""},
	} {
		if _, err := Parse(c.line); err == nil || err.Error() != c.want || !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse(%q) error %v, want %q", c.line, err, c.want)
		}
	}
}

// sprintfString is how String formatted an entry with fmt, kept as the
// reference the append-based formatting must match byte for byte.
func sprintfString(e Entry) string {
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

// TestStringMatchesSprintf holds String, and the lines Writer writes,
// to the fmt formatting on random entries and on edge values: empty
// fields, unknown and zero sizes, negative statuses and odd zones.
func TestStringMatchesSprintf(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want strings.Builder
	check := func(e Entry) bool {
		if got, ref := e.String(), sprintfString(e); got != ref {
			t.Errorf("String = %q, fmt gives %q", got, ref)
			return false
		}
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
		want.WriteString(sprintfString(e) + "\n")
		return true
	}
	zone := time.FixedZone("", -(9*60+30)*60)
	for _, e := range []Entry{
		{},
		{Host: "h", Bytes: -1, Time: time.Unix(0, 0).UTC()},
		{Host: "h", Ident: "i", AuthUser: "u", Method: "GET", Path: "/a b", Proto: "HTTP/1.1", Status: -3, Bytes: 0, Time: time.Date(1999, 12, 31, 23, 59, 59, 5e8, zone)},
		{Host: "::1", Method: "POST", Path: "/é\"q", Status: 999999, Bytes: 1 << 62, Time: time.Date(2006, 7, 1, 0, 0, 0, 0, time.Local)},
	} {
		check(e)
	}
	if err := quick.Check(func(host, ident, user, method, path, proto string, status int, size int64, sec int64) bool {
		return check(Entry{Host: host, Ident: ident, AuthUser: user, Method: method, Path: path, Proto: proto,
			Status: status, Bytes: size, Time: time.Unix(sec%(1<<34), 0).In(zone)})
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want.String() {
		t.Fatal("Writer's lines differ from the fmt formatting")
	}
}

// TestWriterAllocs pins Write at zero allocations once its line buffer
// has grown.
func TestWriterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	w := NewWriter(io.Discard)
	e, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Write allocates %.2f objects a line, want 0", allocs)
	}
}
