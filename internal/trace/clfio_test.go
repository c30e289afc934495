package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"prord/internal/clf"
)

func TestCLFRoundTrip(t *testing.T) {
	_, tr := smallTrace(t, 21)
	var buf bytes.Buffer
	if err := WriteCLF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCLF("back", &buf, DefaultSessionizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Requests) != len(tr.Requests) {
		t.Fatalf("round trip: %d requests, want %d", len(back.Requests), len(tr.Requests))
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	// Request paths and order should survive.
	for i := range tr.Requests {
		if back.Requests[i].Path != tr.Requests[i].Path {
			t.Fatalf("request %d path %q != %q", i, back.Requests[i].Path, tr.Requests[i].Path)
		}
	}
	// Every requested file must be in the imported table with its true
	// size (unrequested files are legitimately absent).
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if got, ok := back.Files[r.Path]; !ok || got != r.Size {
			t.Fatalf("file %s: imported size %d (present=%v), want %d", r.Path, got, ok, r.Size)
		}
	}
}

func TestIsEmbeddedPath(t *testing.T) {
	if !IsEmbeddedPath("/a/b/x.GIF") || !IsEmbeddedPath("/s.css") {
		t.Fatal("extension detection should be case-insensitive and cover css")
	}
	if IsEmbeddedPath("/index.html") || IsEmbeddedPath("/noext") {
		t.Fatal("pages must not be classified as embedded")
	}
}

func TestFromCLFSessionTimeout(t *testing.T) {
	base := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	mk := func(host, path string, at time.Duration, size int64) clf.Entry {
		return clf.Entry{Host: host, Time: base.Add(at), Method: "GET",
			Path: path, Proto: "HTTP/1.1", Status: 200, Bytes: size}
	}
	entries := []clf.Entry{
		mk("h1", "/a.html", 0, 100),
		mk("h1", "/b.html", time.Minute, 100),
		mk("h1", "/c.html", 2*time.Hour, 100), // beyond timeout: new session
		mk("h2", "/a.html", time.Second, 100),
	}
	tr := FromCLF("t", entries, SessionizeOptions{Timeout: 30 * time.Minute, EmbedWindow: 10 * time.Second})
	sess := tr.Sessions()
	if len(sess) != 3 {
		t.Fatalf("sessions = %d, want 3 (h1 split by timeout + h2)", len(sess))
	}
}

func TestFromCLFEmbeddedAttribution(t *testing.T) {
	base := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	entries := []clf.Entry{
		{Host: "h", Time: base, Method: "GET", Path: "/page.html", Proto: "HTTP/1.1", Status: 200, Bytes: 500},
		{Host: "h", Time: base.Add(time.Second), Method: "GET", Path: "/img.gif", Proto: "HTTP/1.1", Status: 200, Bytes: 50},
		{Host: "h", Time: base.Add(time.Minute), Method: "GET", Path: "/late.gif", Proto: "HTTP/1.1", Status: 200, Bytes: 50},
	}
	tr := FromCLF("t", entries, DefaultSessionizeOptions())
	if !tr.Requests[1].Embedded || tr.Requests[1].Parent != "/page.html" {
		t.Fatalf("img.gif should attach to /page.html: %+v", tr.Requests[1])
	}
	if tr.Requests[2].Embedded {
		t.Fatalf("late.gif outside window should not be embedded: %+v", tr.Requests[2])
	}
}

func TestFromCLFFiltersErrorsAndNonGET(t *testing.T) {
	base := time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)
	entries := []clf.Entry{
		{Host: "h", Time: base, Method: "GET", Path: "/ok.html", Proto: "HTTP/1.1", Status: 200, Bytes: 10},
		{Host: "h", Time: base, Method: "POST", Path: "/form", Proto: "HTTP/1.1", Status: 200, Bytes: 10},
		{Host: "h", Time: base, Method: "GET", Path: "/missing", Proto: "HTTP/1.1", Status: 404, Bytes: 10},
	}
	tr := FromCLF("t", entries, DefaultSessionizeOptions())
	if len(tr.Requests) != 1 || tr.Requests[0].Path != "/ok.html" {
		t.Fatalf("only the 200 GET should survive, got %+v", tr.Requests)
	}
}

func TestFromCLFEmpty(t *testing.T) {
	tr := FromCLF("t", nil, SessionizeOptions{})
	if len(tr.Requests) != 0 || len(tr.Files) != 0 {
		t.Fatal("empty input should yield empty trace")
	}
}

func TestWriteCLFFormat(t *testing.T) {
	_, tr := smallTrace(t, 23)
	var buf bytes.Buffer
	if err := WriteCLF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tr.Requests) {
		t.Fatalf("CLF lines = %d, want %d", len(lines), len(tr.Requests))
	}
	if _, err := clf.Parse(lines[0]); err != nil {
		t.Fatalf("first exported line unparseable: %v", err)
	}
}

func TestReadCLFSkipped(t *testing.T) {
	_, tr := smallTrace(t, 23)
	var buf bytes.Buffer
	if err := WriteCLF(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Interleave garbage the parser must drop without failing the stream.
	dirty := "not a log line\n" + buf.String() + "also : not [parseable\n"
	back, skipped, err := ReadCLFSkipped("dirty", strings.NewReader(dirty), DefaultSessionizeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2", skipped)
	}
	if len(back.Requests) != len(tr.Requests) {
		t.Errorf("parsed %d requests, want %d", len(back.Requests), len(tr.Requests))
	}
	// Clean stream: zero skipped, and ReadCLF agrees with ReadCLFSkipped.
	_, skipped, err = ReadCLFSkipped("clean", bytes.NewReader(buf.Bytes()), DefaultSessionizeOptions())
	if err != nil || skipped != 0 {
		t.Errorf("clean stream: skipped = %d, err = %v; want 0, nil", skipped, err)
	}
}
