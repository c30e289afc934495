package clf

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// timeSeeds are timestamps around the edges of parseTime's fast path:
// each either takes it or must fall back to time.Parse.
var timeSeeds = []string{
	"10/Oct/2000:13:55:36 -0700",
	"01/Jul/2006:00:00:00 +0000",
	"28/Feb/2001:23:59:59 +0530",
	"29/Feb/2004:12:00:00 +0100", // leap year
	"29/Feb/2001:12:00:00 +0100", // not a leap year
	"31/Dec/1999:23:59:59 -1200",
	"01/Jan/2000:00:00:00 +2400",
	"01/Jan/2000:00:00:00 -0060",
	"01/Jan/2000:00:00:00 +2401",
	"01/Jan/2000:00:00:00 -0000",
	"10/oct/2000:13:55:36 -0700", // lowercase month
	"1/Oct/2000:13:55:36 -0700",  // one-digit day
	"10/Oct/2000:13:55:05.5 -0700",
	"10/Oct/2000:13:55:36 -070",   // 25 bytes
	"10/Oct/2000:13:55:36 -07000", // 27 bytes
	"00/Oct/2000:13:55:36 -0700",
	"10/Oct/2000:24:00:00 -0700",
	"10/Oct/2000:13:60:00 -0700",
	"10/Oct/2000:13:55:60 -0700",
	"10/Oct/0000:13:55:36 -0700",
	"10/Oct/2000:13:55:36 *0700",
	"10/Oct/2000 13:55:36 -0700",
	"10/Oct/2000:13:55:36 -07a0",
	"",
}

// sameTime fails t unless parseTime agrees with time.Parse on s: both
// fail, or both succeed with equal instants in the same zone.
func sameTime(t *testing.T, s string) {
	t.Helper()
	got, gotErr := parseTime(s)
	want, wantErr := time.Parse(TimeLayout, s)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("parseTime(%q) error %v, time.Parse error %v", s, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	_, gotOff := got.Zone()
	_, wantOff := want.Zone()
	if !got.Equal(want) || gotOff != wantOff || got.Location().String() != want.Location().String() {
		t.Fatalf("parseTime(%q) = %v in %q, time.Parse = %v in %q", s, got, got.Location(), want, want.Location())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTime(%q) = %#v, time.Parse = %#v", s, got, want)
	}
}

// FuzzParseTime holds parseTime to time.Parse(TimeLayout, ·) on any
// string: the fast path must decide exactly what time.Parse decides,
// zone included.
func FuzzParseTime(f *testing.F) {
	for _, s := range timeSeeds {
		f.Add(s)
	}
	f.Fuzz(sameTime)
}

// TestParseTimeLocalZone repeats the seeds with a local zone that has
// summer time, so an offset is the local zone's in one season and an
// unnamed fixed zone in the other, as time.Parse decides.
func TestParseTimeLocalZone(t *testing.T) {
	berlin, err := time.LoadLocation("Europe/Berlin")
	if err != nil {
		t.Skipf("no zone database: %v", err)
	}
	saved := time.Local
	time.Local = berlin
	defer func() { time.Local = saved }()
	for _, s := range append(timeSeeds,
		"10/Jan/2006:12:00:00 +0100", "10/Jan/2006:12:00:00 +0200",
		"10/Jul/2006:12:00:00 +0100", "10/Jul/2006:12:00:00 +0200") {
		sameTime(t, s)
	}
	if e, err := Parse(`h - - [10/Jul/2006:12:00:00 +0200] "GET / HTTP/1.1" 200 1`); err != nil || e.Time.Location() != time.Local {
		t.Fatalf("a summer +0200 line in Berlin reads as %v (%v), want the local zone", e.Time, err)
	}
}

// FuzzSplitRequest holds splitRequest to strings.Fields.
func FuzzSplitRequest(f *testing.F) {
	for _, s := range []string{
		"GET / HTTP/1.1",
		"GET /x",
		"G E T / HTTP/1.1",
		"",
		"  \t ",
		"GET\v/\fHTTP/1.0\r",
		"GET\u0085/ HTTP/1.1",
		"GET / HTTP/1.1",
		"GET /café HTTP/1.1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		parts, n := splitRequest(s)
		words := strings.Fields(s)
		if n != len(words) {
			t.Fatalf("splitRequest(%q) finds %d words, strings.Fields %d", s, n, len(words))
		}
		for i := 0; i < min(n, len(parts)); i++ {
			if parts[i] != words[i] {
				t.Fatalf("splitRequest(%q) word %d = %q, strings.Fields %q", s, i, parts[i], words[i])
			}
		}
	})
}

// TestParseAllocs pins Parse of a well-formed line at zero allocations:
// its fields are substrings of the line and its timestamp is decoded
// without time.Parse.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	for _, line := range []string{sample, `s1 - - [01/Jul/2006:00:00:00 +0000] "GET /g0/p0.html HTTP/1.1" 200 4096`} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := Parse(line); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("Parse(%q) allocates %.1f objects, want 0", line, allocs)
		}
	}
}

// testLog is n lines of access log; with dirty set, every seventh line
// is malformed and comments and blank lines are mixed in.
func testLog(n int, dirty bool) string {
	var b strings.Builder
	base := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		if dirty && i%7 == 3 {
			b.WriteString("garbage [line\n# comment\n\n")
			continue
		}
		e := Entry{Host: fmt.Sprintf("h%d", i%13), Time: base.Add(time.Duration(i) * time.Second),
			Method: "GET", Path: fmt.Sprintf("/p%d.html", i%101), Proto: "HTTP/1.1", Status: 200, Bytes: int64(i)}
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// readAllOn is ReadAll of log on the given number of parse workers.
func readAllOn(log string, workers int) ([]Entry, int, error) {
	r := NewReader(nil)
	entries, tooLong := r.parseBlock(log, workers)
	if tooLong {
		return entries, r.Skipped(), bufio.ErrTooLong
	}
	return entries, r.Skipped(), nil
}

// sameAsReference fails t unless ReadAll of log, through a reader that
// reports its length and through one that does not, and the block
// parser on 1 to 4 workers return the reference's entries, skipped
// count and error.
func sameAsReference(t *testing.T, log string) {
	t.Helper()
	ref := newRefReader(strings.NewReader(log))
	want, wantErr := ref.ReadAll()
	check := func(how string, got []Entry, skipped int, err error) {
		t.Helper()
		if err != wantErr {
			t.Fatalf("%s: error %v, reference %v", how, err, wantErr)
		}
		if skipped != ref.Skipped() {
			t.Fatalf("%s: skipped %d, reference %d", how, skipped, ref.Skipped())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %d entries differ from the reference's %d", how, len(got), len(want))
		}
	}
	for _, in := range []io.Reader{strings.NewReader(log), iotest.HalfReader(strings.NewReader(log))} {
		r := NewReader(in)
		got, err := r.ReadAll()
		check(fmt.Sprintf("ReadAll from %T", in), got, r.Skipped(), err)
	}
	for workers := 1; workers <= 4; workers++ {
		got, skipped, err := readAllOn(log, workers)
		check(fmt.Sprintf("%d workers", workers), got, skipped, err)
	}
}

// TestReadAllMatchesReference requires ReadAll to return the entries,
// the skipped count and the error of the bufio.Scanner reader it
// replaced, on clean and dirty logs of lengths around the growth steps
// of a slice and across chunk boundaries.
func TestReadAllMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 255, 256, 257, 10000} {
		for _, dirty := range []bool{false, true} {
			sameAsReference(t, testLog(n, dirty))
		}
	}
	sameAsReference(t, stampLog())
	// A log of malformed lines reads as nil.
	r := NewReader(strings.NewReader("garbage\nmore garbage\n"))
	if got, err := r.ReadAll(); got != nil || err != nil || r.Skipped() != 2 {
		t.Fatalf("all-malformed log: ReadAll = %v, %v with %d skipped; want nil, nil, 2", got, err, r.Skipped())
	}
}

// stampLog is a log whose lines share timestamps — an empty one first,
// runs of one second, a second that comes back after another, a bad
// timestamp repeated, and every seed of parseTime's fast path — so a
// chunk's cached timestamp is hit, replaced and never taken for a
// different text.
func stampLog() string {
	var b strings.Builder
	b.WriteString("h - - [] \"GET / HTTP/1.1\" 200 1\n")
	line := func(ts string, i int) {
		fmt.Fprintf(&b, "h%d - - [%s] \"GET /p%d.html HTTP/1.1\" 200 %d\n", i%5, ts, i%7, i)
	}
	a, c := "01/Jul/2006:00:00:00 +0000", "01/Jul/2006:00:00:01 +0200"
	for i, ts := range []string{a, a, a, c, a, c, c, "31/Feb/2006:00:00:00 +0000", "31/Feb/2006:00:00:00 +0000", a} {
		line(ts, i)
	}
	for i, ts := range timeSeeds {
		line(ts, i)
		line(ts, i+1)
	}
	return b.String()
}

// TestReadAllLongLines puts lines one byte either side of maxLine, the
// length bufio.Scanner's 1 MiB buffer rejects, before, between and
// after well-formed lines: ReadAll returns bufio.ErrTooLong exactly
// where the reference does, with the entries before the long line.
func TestReadAllLongLines(t *testing.T) {
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine, maxLine + 1} {
		long := "#" + strings.Repeat("x", n-1)
		for _, log := range []string{
			long,
			long + "\n",
			long + "\r\n" + sample,
			sample + "\n" + long + "\n" + sample + "\n",
			sample + "\n" + long,
			sample + "\r\n" + long[1:] + "\r\n" + sample,
		} {
			sameAsReference(t, log)
		}
	}
	if _, _, err := readAllOn(strings.Repeat("x", maxLine), 1); err != bufio.ErrTooLong {
		t.Fatalf("a line of maxLine bytes reads with error %v, want bufio.ErrTooLong", err)
	}
}

// FuzzReadAll holds ReadAll to the bufio.Scanner reader it replaced on
// any log, at 1 to 4 parse workers.
func FuzzReadAll(f *testing.F) {
	f.Add(sample+"\r\n"+sample+"\r\n", uint8(1))
	f.Add("\n\n# comment\n \t \n"+sample+"\n\n#"+sample+"\n", uint8(2))
	f.Add("\u00a0"+sample+"\u0085\n\u2003\n"+sample+"\u3000", uint8(3))
	f.Add(sample+"\n"+sample, uint8(1))
	f.Add(sample+"\ngarbage\nmore [garbage\n\"GET / HTTP/1.1\"\n"+sample+"\n", uint8(3))
	f.Add(testLog(20, true), uint8(3))
	f.Add(stampLog(), uint8(2))
	f.Fuzz(func(t *testing.T, log string, workers uint8) {
		ref := newRefReader(strings.NewReader(log))
		want, wantErr := ref.ReadAll()
		got, skipped, err := readAllOn(log, 1+int(workers%4))
		if err != wantErr || skipped != ref.Skipped() || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: %d entries, %d skipped, error %v; reference %d, %d, %v",
				1+workers%4, len(got), skipped, err, len(want), ref.Skipped(), wantErr)
		}
	})
}

// TestReadAllAllocs caps ReadAll at a few allocations per parse worker
// however long the log: the block, the entries, the chunk tables and
// each worker's goroutine, and no string per line. AllocsPerRun runs
// at GOMAXPROCS 1, so ReadAll parses on one worker there, and the
// block parser is measured on four as well.
func TestReadAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	const n = 10000
	log := testLog(n, false)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := NewReader(strings.NewReader(log)).ReadAll(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("ReadAll of %d lines allocates %.0f objects, want at most 12", n, allocs)
	}
	allocs = testing.AllocsPerRun(5, func() {
		if _, _, err := readAllOn(log, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Errorf("parsing %d lines on 4 workers allocates %.0f objects, want at most 24", n, allocs)
	}
	// A malformed line is counted and dropped without building an
	// error: a dirty log allocates what a clean one does, plus slack.
	dirty := testLog(n, true)
	clean := allocs
	allocs = testing.AllocsPerRun(5, func() {
		if _, _, err := readAllOn(dirty, 4); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > clean+4 {
		t.Errorf("parsing a dirty log of %d lines on 4 workers allocates %.0f objects, the clean log %.0f; want at most 4 more", n, allocs, clean)
	}
}

var sinkEntries []Entry

// BenchmarkReadAll reads a 10,000-line log.
func BenchmarkReadAll(b *testing.B) {
	log := testLog(10000, false)
	b.ReportAllocs()
	b.SetBytes(int64(len(log)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkEntries, err = NewReader(strings.NewReader(log)).ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}
