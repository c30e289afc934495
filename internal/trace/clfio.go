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
// response per path, and rebases times to a zero origin.
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
	// usually are, its earliest time and how many requests survive the
	// filter.
	inOrder, origin, kept := true, entries[0].Time, 0
	for i := range entries {
		e := &entries[i]
		if e.Time.Before(origin) {
			origin = e.Time
		}
		if i > 0 && e.Time.Before(entries[i-1].Time) {
			inOrder = false
		}
		if keep(e) {
			kept++
		}
	}
	// A log out of order is read through a stably sorted permutation,
	// leaving the caller's entries as they are.
	var order []int
	if !inOrder {
		order = make([]int, len(entries))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return entries[order[i]].Time.Before(entries[order[j]].Time) })
	}

	type clientState struct {
		session  int
		lastSeen time.Time
		lastPage string
		pageSeen time.Time
	}
	clients := make(map[string]*clientState)
	nextSession := 0
	// files holds each requested path once, in first-request order, with
	// its extension's verdict and its largest response; reqFile is each
	// request's index into it.
	type file struct {
		path string
		kind pathKind
		size int64
	}
	var files []file
	fileIndex := make(map[string]int32)
	reqFile := make([]int32, 0, kept)
	if kept > 0 {
		t.Requests = make([]Request, 0, kept)
	}

	for i := range entries {
		e := &entries[i]
		if order != nil {
			e = &entries[order[i]]
		}
		if !keep(e) {
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

		k, ok := fileIndex[e.Path]
		if !ok {
			k = int32(len(files))
			files = append(files, file{path: e.Path, kind: classifyPath(e.Path)})
			fileIndex[e.Path] = k
		}
		f := &files[k]
		f.size = max(f.size, size)
		reqFile = append(reqFile, k)

		r := Request{
			Time:    e.Time.Sub(origin),
			Session: cs.session,
			Client:  e.Host,
			Path:    e.Path,
			Dynamic: f.kind == dynamicKind,
		}
		if f.kind == embeddedKind {
			if cs.lastPage != "" && e.Time.Sub(cs.pageSeen) <= opt.EmbedWindow {
				r.Embedded = true
				r.Parent = cs.lastPage
			}
		} else {
			cs.lastPage = e.Path
			cs.pageSeen = e.Time
		}
		t.Requests = append(t.Requests, r)
	}
	// The file table records the max response size of every requested
	// path, 0 for one never logged with a size (say, only ever answered
	// 304 with "-"); requests must agree with the table for Validate, so
	// they take its sizes.
	for _, f := range files {
		t.Files[f.path] = f.size
	}
	for i := range t.Requests {
		t.Requests[i].Size = files[reqFile[i]].size
	}
	return t
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
