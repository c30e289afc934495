package trace

import (
	"bytes"
	"path"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"prord/internal/clf"
	"prord/internal/randutil"
)

// referenceFromCLF is FromCLF as it was before it learned to skip the
// sort of a log already in time order: copy, stable sort, sessionize.
// FromCLF must build the same trace from any input.
func referenceFromCLF(name string, entries []clf.Entry, opt SessionizeOptions) *Trace {
	if opt.Timeout <= 0 {
		opt.Timeout = DefaultSessionizeOptions().Timeout
	}
	if opt.EmbedWindow <= 0 {
		opt.EmbedWindow = DefaultSessionizeOptions().EmbedWindow
	}
	sorted := make([]clf.Entry, len(entries))
	copy(sorted, entries)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })

	t := &Trace{Name: name, Files: make(map[string]int64)}
	if len(sorted) == 0 {
		return t
	}
	origin := sorted[0].Time

	type clientState struct {
		session  int
		lastSeen time.Time
		lastPage string
		pageSeen time.Time
	}
	clients := make(map[string]*clientState)
	nextSession := 0

	for _, e := range sorted {
		if e.Method != "GET" || e.Status >= 400 {
			continue
		}
		size := e.Bytes
		if size < 0 {
			size = 0
		}
		cs, ok := clients[e.Host]
		if !ok || e.Time.Sub(cs.lastSeen) > opt.Timeout {
			cs = &clientState{session: nextSession}
			nextSession++
			clients[e.Host] = cs
		}
		cs.lastSeen = e.Time

		r := Request{
			Time:    e.Time.Sub(origin),
			Session: cs.session,
			Client:  e.Host,
			Path:    e.Path,
			Size:    size,
			Dynamic: referenceIsDynamic(e.Path),
		}
		if referenceIsEmbedded(e.Path) && cs.lastPage != "" &&
			e.Time.Sub(cs.pageSeen) <= opt.EmbedWindow {
			r.Embedded = true
			r.Parent = cs.lastPage
		} else if !referenceIsEmbedded(e.Path) {
			cs.lastPage = e.Path
			cs.pageSeen = e.Time
		}
		if cur, ok := t.Files[e.Path]; !ok || size > cur {
			t.Files[e.Path] = size
		}
		t.Requests = append(t.Requests, r)
	}
	for i := range t.Requests {
		t.Requests[i].Size = t.Files[t.Requests[i].Path]
	}
	return t
}

// The extension tables and tests IsEmbeddedPath and IsDynamicPath
// used before classifyPath.
var (
	referenceEmbedded = map[string]bool{
		".gif": true, ".jpg": true, ".jpeg": true, ".png": true, ".ico": true,
		".css": true, ".js": true, ".class": true, ".swf": true, ".bmp": true,
		".mp3": true, ".wav": true, ".avi": true, ".mpg": true,
	}
	referenceDynamic = map[string]bool{
		".cgi": true, ".php": true, ".asp": true, ".jsp": true, ".pl": true,
	}
)

func referenceIsEmbedded(p string) bool { return referenceEmbedded[strings.ToLower(path.Ext(p))] }
func referenceIsDynamic(p string) bool  { return referenceDynamic[strings.ToLower(path.Ext(p))] }

func TestClassifyPathMatchesReference(t *testing.T) {
	paths := []string{
		"", "/", "/index.html", "/noext", "/a/b/x.GIF", "/s.css", "/s.Css", "/x.JPEG",
		"/A.class", "/a.CLASS", "/a.classes", "/q.php", "/q.PL", "/q.pl/", "/dir.gif/page",
		"/x.", "/x.gif.html", "/x.html.gif", "/x.GİF", "/x.İCO", "/x.gıf", "/x.ˋgif",
		"/x.verylongextension", "/x.ÇGI", ".js", "/x.mpg", "/x.MP3",
	}
	for _, p := range paths {
		if got, want := IsEmbeddedPath(p), referenceIsEmbedded(p); got != want {
			t.Errorf("IsEmbeddedPath(%q) = %v, want %v", p, got, want)
		}
		if got, want := IsDynamicPath(p), referenceIsDynamic(p); got != want {
			t.Errorf("IsDynamicPath(%q) = %v, want %v", p, got, want)
		}
	}
}

// TestClassifyPathAllocs pins the extension test at zero allocations
// for an ASCII path in any case: it runs on every routed request.
func TestClassifyPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	for _, p := range []string{"/A/B/X.GIF", "/index.html", "/cgi/Q.PHP", "/noext"} {
		if allocs := testing.AllocsPerRun(100, func() { IsEmbeddedPath(p); IsDynamicPath(p) }); allocs != 0 {
			t.Errorf("classifying %q allocates %.1f objects, want 0", p, allocs)
		}
	}
}

// generatedEntries is a generated trace written as CLF and read back:
// entries in time order, with pages, embedded images and CGI pages.
func generatedEntries(tb testing.TB, requests int) []clf.Entry {
	tb.Helper()
	cfg := DefaultSiteConfig()
	cfg.Pages = 100
	cfg.Groups = 4
	cfg.DynamicFraction = 0.1
	site, err := GenerateSite(cfg, randutil.New(7))
	if err != nil {
		tb.Fatal(err)
	}
	tcfg := DefaultTraceConfig()
	tcfg.Requests = requests
	tr, err := Generate("gen", site, tcfg, randutil.New(8))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCLF(&buf, tr); err != nil {
		tb.Fatal(err)
	}
	entries, err := clf.NewReader(&buf).ReadAll()
	if err != nil {
		tb.Fatal(err)
	}
	return entries
}

// TestFromCLFMatchesReference requires FromCLF to build the reference's
// trace, deep-equal, to leave its input as it found it, and to build a
// trace Validate accepts: a path logged only without a size, like the
// filtered case's "/a.gif 304 -", is in the file table with size 0.
func TestFromCLFMatchesReference(t *testing.T) {
	sorted := generatedEntries(t, 3000)
	shuffled := slices.Clone(sorted)
	randutil.New(9).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	base := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	get := func(host, p string, at time.Duration) clf.Entry {
		return clf.Entry{Host: host, Time: base.Add(at), Method: "GET", Path: p, Proto: "HTTP/1.1", Status: 200, Bytes: 10}
	}
	// Equal timestamps across hosts, out of order: a stable sort keeps
	// each instant's entries in input order.
	var ties []clf.Entry
	for i := 0; i < 60; i++ {
		ties = append(ties, get([]string{"a", "b", "c"}[i%3], []string{"/p.html", "/i.gif", "/q.cgi", "/r.html"}[i%4], time.Duration(5-i%5)*time.Second))
	}
	// POST and 4xx lines are dropped, but the first line, filtered or
	// not, still sets the time origin.
	filtered := []clf.Entry{
		{Host: "h", Time: base, Method: "POST", Path: "/form", Proto: "HTTP/1.1", Status: 200, Bytes: 10},
		get("h", "/ok.html", time.Second),
		{Host: "h", Time: base.Add(2 * time.Second), Method: "GET", Path: "/missing.gif", Proto: "HTTP/1.1", Status: 404, Bytes: 10},
		{Host: "h", Time: base.Add(3 * time.Second), Method: "GET", Path: "/a.gif", Proto: "HTTP/1.1", Status: 304, Bytes: -1},
		{Host: "h", Time: base.Add(4 * time.Second), Method: "HEAD", Path: "/b.gif", Proto: "HTTP/1.1", Status: 200, Bytes: 7},
	}
	opt := DefaultSessionizeOptions()
	// Embedded objects at and just past the window, and a session
	// timeout met exactly and just exceeded.
	edges := []clf.Entry{
		get("e", "/page.html", 0),
		get("e", "/at.gif", opt.EmbedWindow),
		get("e", "/past.gif", opt.EmbedWindow+time.Nanosecond),
		get("e", "/late.GIF", opt.Timeout),
		get("e", "/next.html", opt.Timeout+opt.Timeout),
		get("e", "/split.html", 2*opt.Timeout+opt.Timeout+time.Nanosecond),
		get("f", "/orphan.gif", time.Second),
	}
	cases := []struct {
		name    string
		entries []clf.Entry
	}{
		{"sorted", sorted},
		{"shuffled", shuffled},
		{"ties", ties},
		{"filtered", filtered},
		{"all filtered", filtered[:1]},
		{"embedded window", edges},
		{"empty", nil},
	}
	for _, c := range cases {
		before := slices.Clone(c.entries)
		got := FromCLF(c.name, c.entries, opt)
		want := referenceFromCLF(c.name, before, opt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: FromCLF differs from the reference", c.name)
		}
		if !reflect.DeepEqual(c.entries, before) {
			t.Errorf("%s: FromCLF modified its input", c.name)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

var sinkTrace *Trace

// BenchmarkFromCLF sessionizes a 20,000-line log already in time order,
// the usual shape of an access log.
func BenchmarkFromCLF(b *testing.B) {
	entries := generatedEntries(b, 20000)
	opt := DefaultSessionizeOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTrace = FromCLF("bench", entries, opt)
	}
}

// TestFromCLFDoesNotPinTheLog parses a log whose entries' strings are
// substrings of it, as ReadAll's are of its block, and requires every
// string of the trace to be a copy: a request or file-table key that
// points into the log would keep all of it alive.
func TestFromCLFDoesNotPinTheLog(t *testing.T) {
	var buf bytes.Buffer
	w := clf.NewWriter(&buf)
	for _, e := range generatedEntries(t, 2000) {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	log := buf.String()
	var entries []clf.Entry
	for _, line := range strings.Split(strings.TrimSuffix(log, "\n"), "\n") {
		e, err := clf.Parse(line)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	start := uintptr(unsafe.Pointer(unsafe.StringData(log)))
	inLog := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && start <= p && p < start+uintptr(len(log))
	}
	if !inLog(entries[0].Host) || !inLog(entries[0].Path) {
		t.Fatal("the parsed entries do not point into the log; the test checks nothing")
	}
	tr := FromCLF("pin", entries, DefaultSessionizeOptions())
	embedded := 0
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if inLog(r.Client) || inLog(r.Path) || inLog(r.Parent) {
			t.Fatalf("request %d (%s %s, parent %q) points into the log", i, r.Client, r.Path, r.Parent)
		}
		if r.Parent != "" {
			embedded++
		}
	}
	for p := range tr.Files {
		if inLog(p) {
			t.Fatalf("file table key %s points into the log", p)
		}
	}
	if embedded == 0 {
		t.Fatal("no request has a parent; the test does not check Parent")
	}
}
