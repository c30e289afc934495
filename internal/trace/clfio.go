package trace

import (
	"io"
	"path"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"prord/internal/clf"
)

// clfEpoch anchors trace offsets to wall-clock timestamps when exporting.
var clfEpoch = time.Date(2006, 7, 1, 0, 0, 0, 0, time.UTC)

// WriteCLF exports t as a Common Log Format stream.
func WriteCLF(w io.Writer, t *Trace) error {
	cw := clf.NewWriter(w)
	for i := range t.Requests {
		r := &t.Requests[i]
		e := clf.Entry{
			Host:   r.Client,
			Time:   clfEpoch.Add(r.Time),
			Method: "GET",
			Path:   r.Path,
			Proto:  "HTTP/1.1",
			Status: 200,
			Bytes:  r.Size,
		}
		if err := cw.Write(e); err != nil {
			return err
		}
	}
	return cw.Flush()
}

// pathKind is what a path's extension says about its content.
type pathKind uint8

const (
	pageKind     pathKind = iota // a main page, or an unknown extension
	embeddedKind                 // an embedded object: image, style sheet, applet...
	dynamicKind                  // generated per request
)

// extensionKinds classifies the lower-case object suffixes used when
// sessionizing real logs where the site structure is unknown.
var extensionKinds = map[string]pathKind{
	".gif": embeddedKind, ".jpg": embeddedKind, ".jpeg": embeddedKind, ".png": embeddedKind, ".ico": embeddedKind,
	".css": embeddedKind, ".js": embeddedKind, ".class": embeddedKind, ".swf": embeddedKind, ".bmp": embeddedKind,
	".mp3": embeddedKind, ".wav": embeddedKind, ".avi": embeddedKind, ".mpg": embeddedKind,
	".cgi": dynamicKind, ".php": dynamicKind, ".asp": dynamicKind, ".jsp": dynamicKind, ".pl": dynamicKind,
}

// classifyPath judges p by its file extension, matched without regard
// to case. An ASCII extension is lowered in a stack buffer; any other
// goes through strings.ToLower, whose Unicode case mapping can turn a
// non-ASCII letter into an ASCII one.
func classifyPath(p string) pathKind {
	ext := path.Ext(p)
	for i := 0; i < len(ext); i++ {
		if ext[i] >= utf8.RuneSelf {
			return extensionKinds[strings.ToLower(ext)]
		}
	}
	var buf [len(".class")]byte
	if len(ext) > len(buf) {
		return pageKind
	}
	for i := 0; i < len(ext); i++ {
		c := ext[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf[i] = c
	}
	return extensionKinds[string(buf[:len(ext)])]
}

// IsEmbeddedPath reports whether p looks like an embedded object rather
// than a main page, judged by its file extension.
func IsEmbeddedPath(p string) bool { return classifyPath(p) == embeddedKind }

// IsDynamicPath reports whether p looks like dynamically generated
// (uncacheable) content, judged by its extension.
func IsDynamicPath(p string) bool { return classifyPath(p) == dynamicKind }

// SessionizeOptions controls CLF import.
type SessionizeOptions struct {
	// Timeout ends a client's session after this much idle time; a new
	// request then opens a new session (new persistent connection).
	Timeout time.Duration
	// EmbedWindow attributes an embedded-looking request to the client's
	// most recent main page if it arrives within this window.
	EmbedWindow time.Duration
}

// DefaultSessionizeOptions mirrors common web-usage-mining practice
// (30-minute session timeout) with a short embedded-object window.
func DefaultSessionizeOptions() SessionizeOptions {
	return SessionizeOptions{Timeout: 30 * time.Minute, EmbedWindow: 10 * time.Second}
}

// FromCLF builds a trace from parsed log entries: it sessionizes per
// client host with the given idle timeout, classifies embedded objects by
// extension and recency, sizes the file table from the largest observed
// response per path, and rebases times to a zero origin. The trace's
// strings are its own, so it does not keep the entries' log alive.
func FromCLF(name string, entries []clf.Entry, opt SessionizeOptions) *Trace {
	if opt.Timeout <= 0 {
		opt.Timeout = DefaultSessionizeOptions().Timeout
	}
	if opt.EmbedWindow <= 0 {
		opt.EmbedWindow = DefaultSessionizeOptions().EmbedWindow
	}
	t := &Trace{Name: name, Files: make(map[string]int64)}
	if len(entries) == 0 {
		return t
	}
	// One pass finds whether the log is already in time order, as logs
	// usually are, its earliest time and the requests that survive the
	// filter. A log out of order is read through a stably sorted
	// permutation, leaving the caller's entries as they are.
	inOrder, origin := true, entries[0].Time
	kept := make([]int32, 0, len(entries))
	for i := range entries {
		e := &entries[i]
		if e.Time.Before(origin) {
			origin = e.Time
		}
		if i > 0 && e.Time.Before(entries[i-1].Time) {
			inOrder = false
		}
		if keep(e) {
			kept = append(kept, int32(i))
		}
	}
	if !inOrder {
		sort.SliceStable(kept, func(i, j int) bool { return entries[kept[i]].Time.Before(entries[kept[j]].Time) })
	}

	// The two passes that index a map run at once. One interns each
	// requested path, in first-request order, with its extension's
	// verdict and its largest response; the other numbers the sessions.
	interned, reqFile := make(chan []file, 1), make([]int32, len(kept))
	go func() { interned <- internPaths(entries, kept, reqFile) }()
	clients, sessions, reqSession := sessionize(entries, kept, opt.Timeout)
	files := <-interned

	// The join attributes each embedded object to its session's most
	// recent main page. Requests take the file table's sizes, which
	// Validate requires: a path never logged with a size (say, only ever
	// answered 304 with "-") has size 0.
	if len(kept) > 0 {
		t.Requests = make([]Request, len(kept))
	}
	for j, i := range kept {
		e, f, s := &entries[i], &files[reqFile[j]], &sessions[reqSession[j]]
		t.Requests[j] = Request{
			Time:    e.Time.Sub(origin),
			Session: int(reqSession[j]),
			Client:  clients[s.client],
			Path:    f.path,
			Size:    f.size,
			Dynamic: f.kind == dynamicKind,
		}
		if f.kind != embeddedKind {
			s.page = int32(j)
		} else if s.page >= 0 && e.Time.Sub(entries[kept[s.page]].Time) <= opt.EmbedWindow {
			t.Requests[j].Embedded = true
			t.Requests[j].Parent = t.Requests[s.page].Path
		}
	}
	t.Files = make(map[string]int64, len(files))
	for _, f := range files {
		t.Files[f.path] = f.size
	}
	return t
}

// file is one requested path, interned: the trace's copy of it, its
// extension's verdict and its largest logged response.
type file struct {
	path string
	kind pathKind
	size int64
}

// internPaths returns the files of the kept entries, in first-request
// order, and sets reqFile[j] to the kept entry j's index among them.
func internPaths(entries []clf.Entry, kept, reqFile []int32) []file {
	var files []file
	index := make(map[string]int32)
	for j, i := range kept {
		e := &entries[i]
		k, ok := index[e.Path]
		if !ok {
			k = int32(len(files))
			p := strings.Clone(e.Path)
			files = append(files, file{path: p, kind: classifyPath(p)})
			index[p] = k
		}
		files[k].size = max(files[k].size, e.Bytes)
		reqFile[j] = k
	}
	return files
}

// session is one session's client and the kept entry of its most
// recent main page, which its embedded objects are attributed to, or -1.
type session struct {
	client, page int32
}

// sessionize numbers the kept entries' sessions in order of first
// request: a client's request after more than timeout of idle time
// opens its next session. It returns the clients, interned, the
// sessions and each kept entry's session.
func sessionize(entries []clf.Entry, kept []int32, timeout time.Duration) ([]string, []session, []int32) {
	var clients []string
	var sessions []session
	// latest[k] is client k's current session and latest kept entry.
	type state struct{ session, entry int32 }
	var latest []state
	reqSession := make([]int32, len(kept))
	index := make(map[string]int32)
	for j, i := range kept {
		e := &entries[i]
		k, ok := index[e.Host]
		if !ok {
			k = int32(len(clients))
			clients = append(clients, strings.Clone(e.Host))
			index[clients[k]] = k
			latest = append(latest, state{})
		}
		c := &latest[k]
		if !ok || e.Time.Sub(entries[kept[c.entry]].Time) > timeout {
			c.session = int32(len(sessions))
			sessions = append(sessions, session{client: k, page: -1})
		}
		c.entry = int32(j)
		reqSession[j] = c.session
	}
	return clients, sessions, reqSession
}

// keep reports whether FromCLF turns e into a request: a GET that did
// not fail.
func keep(e *clf.Entry) bool { return e.Method == "GET" && e.Status < 400 }

// ReadCLF reads a whole CLF stream and sessionizes it into a trace.
func ReadCLF(name string, r io.Reader, opt SessionizeOptions) (*Trace, error) {
	t, _, err := ReadCLFSkipped(name, r, opt)
	return t, err
}

// ReadCLFSkipped is ReadCLF plus the parser's malformed-line count: the
// reader drops lines it cannot parse rather than failing the stream, and
// callers validating log quality need to know how many it dropped.
func ReadCLFSkipped(name string, r io.Reader, opt SessionizeOptions) (*Trace, int, error) {
	cr := clf.NewReader(r)
	entries, err := cr.ReadAll()
	if err != nil {
		return nil, cr.Skipped(), err
	}
	return FromCLF(name, entries, opt), cr.Skipped(), nil
}
