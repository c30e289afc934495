package httpfront

import (
	"bufio"
	"bytes"
	"errors"
	"hash/maphash"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// stricter names every head the parser refuses on purpose where
// http.ReadResponse accepts it: a head over the size limit, a version
// other than HTTP/1.0 or HTTP/1.1, a status code outside 100–999 or not
// written as three digits, whitespace in a field name, and a repeated
// Content-Length even with equal values.
var stricter = []error{errHeadTooLarge, errVersion, errStatusCode, errFieldNameSpace, errDuplicateLength}

// fuzzHeadLimit and fuzzBufSize keep the fuzzer's inputs small while
// still reaching the head limit and lines longer than the read buffer.
const (
	fuzzHeadLimit = 256
	fuzzBufSize   = 64
)

// FuzzReadHead holds the head parser to http.ReadResponse on arbitrary
// bytes: both accept or both reject, except where the parser is
// stricter on purpose (stricter); and when both accept, they agree on
// the status, the framing (none, length, chunked, until EOF), whether
// the connection closes, the canonical header fields, and the body
// bytes and trailers. Interim 1xx heads are read past on both sides.
func FuzzReadHead(f *testing.F) {
	for _, seed := range []string{
		"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n4\r\nbody\r\n0\r\nX-Sum: abc\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a.css>\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\nX-Folded: a\r\n  b\r\n\tc \r\n \r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\nContent-Type: text/plain\nContent-Length: 3\n\nabc",
		"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\n\r\nuntil the connection closes",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 1\r\n\r\nx",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
		"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 9\r\n\r\n1\r\nx\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.1 204 No Content\r\nContent-Length: 7\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nEtag: \"v1\"\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close, X-Hop\r\nX-Hop: 1\r\n\r\nrest",
		"HTTP/1.1 200 OK\r\nPragma: no-cache\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Big: " + strings.Repeat("a", fuzzHeadLimit) + "\r\nContent-Length: 0\r\n\r\n",
		"HTTP/2.0 200 OK\r\n\r\n",
		"HTTP/1.1 +99 OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\nBad Name: 1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	// One table for every input, as one backend's connections share it.
	shared := newValueTable()
	f.Fuzz(func(t *testing.T, in []byte) {
		mine := bufio.NewReaderSize(bytes.NewReader(in), fuzzBufSize)
		std := bufio.NewReaderSize(bytes.NewReader(in), fuzzBufSize)
		hr := newHeadReader(mine, fuzzHeadLimit, shared)
		var h head
		for i := 0; i <= max1xx; i++ {
			err := hr.read(&h, http.MethodGet)
			resp, stdErr := http.ReadResponse(std, nil)
			if stdErr != nil {
				if err == nil {
					t.Fatalf("accepted a head http.ReadResponse rejects (%v): %+v", stdErr, h)
				}
				return
			}
			if err != nil {
				for _, e := range stricter {
					if errors.Is(err, e) {
						return
					}
				}
				t.Fatalf("rejected a head http.ReadResponse accepts: %v", err)
			}
			compareHeads(t, &h, resp)
			if h.status >= 200 || h.status == http.StatusSwitchingProtocols {
				compareBodies(t, mine, &h, resp)
				return
			}
		}
	})
}

func compareHeads(t *testing.T, h *head, resp *http.Response) {
	t.Helper()
	if h.status != resp.StatusCode {
		t.Fatalf("status %d, ReadResponse %d", h.status, resp.StatusCode)
	}
	if got, want := framing(h), stdFraming(resp); got != want {
		t.Fatalf("framing %s, ReadResponse %s", got, want)
	}
	if h.close != resp.Close {
		t.Fatalf("close %v, ReadResponse %v", h.close, resp.Close)
	}
	got := http.Header{}
	for _, f := range h.fields {
		got[f.key] = append(got[f.key], f.vals...)
	}
	if h.chunked {
		// ReadResponse drops a Content-Length a chunked body overrides;
		// deliver does not forward it.
		delete(got, "Content-Length")
	}
	if p := got["Pragma"]; len(p) > 0 && p[0] == "no-cache" && got["Cache-Control"] == nil {
		// ReadResponse adds an HTTP/1.0 cache courtesy the forwarder
		// leaves to the client.
		got["Cache-Control"] = []string{"no-cache"}
	}
	want := resp.Header.Clone()
	for _, hop := range hopHeaders {
		// ReadResponse consumes some framing fields and keeps others;
		// deliver drops them all.
		delete(got, hop)
		delete(want, hop)
	}
	if !maps.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("fields %q, ReadResponse %q", got, want)
	}
}

func framing(h *head) string {
	switch {
	case h.chunked:
		return "chunked"
	case h.untilEOF:
		return "until EOF"
	case h.length == 0:
		return "none"
	}
	return "length"
}

func stdFraming(resp *http.Response) string {
	switch {
	case resp.Body == http.NoBody:
		return "none"
	case len(resp.TransferEncoding) > 0:
		return "chunked"
	case resp.ContentLength < 0:
		return "until EOF"
	}
	return "length"
}

func compareBodies(t *testing.T, br *bufio.Reader, h *head, resp *http.Response) {
	t.Helper()
	var b body
	b.reset(br, h)
	got, err := io.ReadAll(&b)
	want, stdErr := io.ReadAll(resp.Body)
	if !bytes.Equal(got, want) || (err == nil) != (stdErr == nil) {
		t.Fatalf("body %q (%v), ReadResponse %q (%v)", got, err, want, stdErr)
	}
	if err != nil {
		return
	}
	for k, vv := range resp.Trailer {
		if len(vv) > 0 && !slices.Equal(h.trailer[k], vv) {
			t.Fatalf("trailer %s = %q, ReadResponse %q", k, h.trailer[k], vv)
		}
	}
	for k, vv := range h.trailer {
		if !slices.Equal(resp.Trailer[k], vv) {
			t.Fatalf("trailer %s = %q, ReadResponse %q", k, vv, resp.Trailer[k])
		}
	}
}

// TestReadHeadSharesRepeatedValues: a value a backend's connections
// have seen before is handed out again, not allocated again, so a
// steady stream of alike heads costs the parser nothing — also with
// more distinct values than one connection ever sees, and across the
// connections of one backend. A value that never repeats costs its own
// two objects and nothing more.
func TestReadHeadSharesRepeatedValues(t *testing.T) {
	const resp = "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nX-Prord-Cache: hit\r\nContent-Length: 2\r\n\r\nok"
	src := strings.NewReader(strings.Repeat(resp, 3))
	hr := newHeadReader(bufio.NewReader(src), maxHeadBytes, tableApart("text/html", "hit", "2"))
	var first, second head
	for _, h := range []*head{&first, &second} {
		if err := hr.read(h, http.MethodGet); err != nil {
			t.Fatal(err)
		}
		hr.br.Discard(int(h.length))
	}
	for i := range first.fields {
		if &first.fields[i].vals[0] != &second.fields[i].vals[0] {
			t.Errorf("%s: the repeated value was allocated again", first.fields[i].key)
		}
		if cap(first.fields[i].vals) != 1 {
			t.Errorf("%s: a shared value slice has room to be appended to in place", first.fields[i].key)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		src.Reset(resp)
		hr.br.Reset(src)
		if err := hr.read(&second, http.MethodGet); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%.1f allocations per repeated head, want 0", allocs)
	}

	// 500 distinct Content-Length values, read round-robin over four
	// connections of one backend. The values are picked to fall in
	// slots of their own, apart from each other's and Content-Type's,
	// since a direct-mapped table keeps only one of two that collide;
	// the first pass keeps them all, the second allocates nothing.
	shared := newValueTable()
	var heads [][]byte
	taken := map[uint64]bool{shared.slot("text/html"): true}
	for n := 0; len(heads) < 500; n++ {
		v := strconv.Itoa(1000 + n)
		if slot := shared.slot(v); !taken[slot] {
			taken[slot] = true
			heads = append(heads, []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: "+v+"\r\n\r\n"))
		}
	}
	srcs := make([]*bytes.Reader, 4)
	conns := make([]headReader, len(srcs))
	for i := range conns {
		srcs[i] = bytes.NewReader(nil)
		conns[i] = newHeadReader(bufio.NewReader(srcs[i]), maxHeadBytes, shared)
	}
	pass := func() {
		for i, in := range heads {
			c := &conns[i%len(conns)]
			srcs[i%len(conns)].Reset(in)
			c.br.Reset(srcs[i%len(conns)])
			if err := c.read(&second, http.MethodGet); err != nil {
				t.Fatal(err)
			}
		}
	}
	// AllocsPerRun's warm-up run is the first pass.
	if allocs := testing.AllocsPerRun(1, pass); allocs != 0 {
		t.Errorf("%.0f allocations over a second pass of %d heads, want 0", allocs, len(heads))
	}

	// A stream of values that never repeat: each head costs one string
	// and one array, and each slot of the fixed-size table ends up
	// keeping the last of the values that fell in it.
	buf := []byte("HTTP/1.1 200 OK\r\nContent-Length: ")
	prefix := len(buf)
	const start = 1 << 20 // past every value read so far
	unique := start
	if allocs := testing.AllocsPerRun(4*valueSlots, func() {
		unique++
		buf = append(strconv.AppendInt(buf[:prefix], int64(unique), 10), "\r\n\r\n"...)
		srcs[0].Reset(buf)
		conns[0].br.Reset(srcs[0])
		if err := conns[0].read(&second, http.MethodGet); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("%.1f allocations per head with a value never seen before, want 2", allocs)
	}
	var last [valueSlots]string
	for n := start + 1; n <= unique; n++ {
		v := strconv.Itoa(n)
		last[shared.slot(v)] = v
	}
	for i, want := range last {
		if kept := shared.slots[i].Load(); want != "" && (kept == nil || kept[0] != want) {
			t.Fatalf("slot %d keeps %q, want %q, the last value that fell in it", i, kept, want)
		}
	}
}

// slot is the slot v falls in.
func (t *valueTable) slot(v string) uint64 { return maphash.String(t.seed, v) % valueSlots }

// tableApart returns a value table in which each of vals falls in a
// slot of its own, so that none evicts another.
func tableApart(vals ...string) *valueTable {
	for {
		t, taken := newValueTable(), make(map[uint64]bool)
		for _, v := range vals {
			taken[t.slot(v)] = true
		}
		if len(taken) == len(vals) {
			return t
		}
	}
}

// TestSharedValuesOutliveEviction: connections of one backend read
// heads concurrently, each with values of its own that evict one
// another's; every value handed out still reads as it did when the
// head was read, and none can be appended to in place.
func TestSharedValuesOutliveEviction(t *testing.T) {
	shared := newValueTable()
	const conns, heads = 4, valueSlots
	type handed struct {
		vals []string
		want string
	}
	got := make([][]handed, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := strings.NewReader("")
			hr := newHeadReader(bufio.NewReader(src), maxHeadBytes, shared)
			for i := 0; i < heads; i++ {
				own := strconv.Itoa(g*heads + i)
				common := strconv.Itoa(i % 50)
				src.Reset("HTTP/1.1 200 OK\r\nX-Own: " + own + "\r\nX-Common: " + common + "\r\nContent-Length: 0\r\n\r\n")
				hr.br.Reset(src)
				var h head
				if err := hr.read(&h, http.MethodGet); err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], handed{h.fields[0].vals, own}, handed{h.fields[1].vals, common})
			}
		}()
	}
	wg.Wait()
	for _, hs := range got {
		for _, h := range hs {
			if len(h.vals) != 1 || h.vals[0] != h.want || cap(h.vals) != 1 {
				t.Fatalf("a value handed out as %q reads %q (cap %d)", h.want, h.vals, cap(h.vals))
			}
		}
	}
}
