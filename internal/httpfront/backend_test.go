package httpfront

import (
	"bytes"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// recordingWriter is a ResponseWriter that keeps the body and counts the
// Write calls that built it.
type recordingWriter struct {
	header http.Header
	body   bytes.Buffer
	writes int
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(int)     {}
func (w *recordingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.body.Write(p)
}

// TestDemoBackendBody: a demo body is the path's pattern repeated and cut
// at the file size, announced by Content-Length, and written in at most
// ⌈size/block⌉ calls, where a block is the whole repetitions of the
// pattern that fit the copy buffer, or the pattern itself when it is
// longer than the buffer.
func TestDemoBackendBody(t *testing.T) {
	const short = "/page.html"
	long := "/" + strings.Repeat("l", copyBufSize+100) + ".html"
	pat := func(path string) string { return "<!-- " + path + " -->\n" }
	p := int64(len(pat(short)))
	block := copyBufSize / p * p
	lp := int64(len(pat(long)))
	cases := []struct {
		path  string
		size  int64
		block int64
	}{
		{short, 0, block},
		{short, 1, block},
		{short, p - 1, block},
		{short, p, block},
		{short, block - 1, block},
		{short, block, block},
		{short, block + 1, block},
		{short, 100 << 10, block},
		{long, 0, lp},
		{long, lp - 1, lp},
		{long, lp + 1, lp},
		{long, 3*lp + 7, lp},
	}
	for _, c := range cases {
		name := strconv.Itoa(len(c.path)) + "B-path/" + strconv.FormatInt(c.size, 10)
		t.Run(name, func(t *testing.T) {
			b := NewDemoBackend("x", map[string]int64{c.path: c.size}, 1<<30, 0)
			w := &recordingWriter{header: http.Header{}}
			b.ServeHTTP(w, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: c.path}, Header: http.Header{}})
			want := strings.Repeat(pat(c.path), int(c.size/int64(len(pat(c.path))))+1)[:c.size]
			if got := w.body.String(); got != want {
				t.Errorf("body of %d bytes differs from the pattern cut at %d bytes", len(got), c.size)
			}
			if got := w.header.Get("Content-Length"); got != strconv.FormatInt(c.size, 10) {
				t.Errorf("Content-Length = %q, want %d", got, c.size)
			}
			if limit := int((c.size + c.block - 1) / c.block); w.writes > limit {
				t.Errorf("%d Write calls, want at most %d", w.writes, limit)
			}
		})
	}
}
