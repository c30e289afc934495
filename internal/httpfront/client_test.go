package httpfront

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// graceSlack is how late past its due time a canceled attempt may
// return, for a loaded machine or the race detector: far below the
// forever a missed cancel would take.
const graceSlack = 250 * time.Millisecond

// timeoutCounter counts the reads and writes on a net.Conn that failed
// on its deadline.
type timeoutCounter struct {
	net.Conn
	n atomic.Int32
}

func (c *timeoutCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.count(err)
	return n, err
}

func (c *timeoutCounter) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.count(err)
	return n, err
}

func (c *timeoutCounter) count(err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.n.Add(1)
	}
}

// pipeConn returns a backend connection over a net.Pipe, whose writes
// block until the other end reads, and the counter of its deadline
// failures. serve plays the backend on the other end; quit is closed
// when the test ends, for a serve that waits instead of answering.
func pipeConn(t *testing.T, serve func(nc net.Conn, quit <-chan struct{})) (*conn, *timeoutCounter) {
	t.Helper()
	b, err := newBackend(&url.URL{Scheme: "http", Host: "backend.test"})
	if err != nil {
		t.Fatal(err)
	}
	front, back := net.Pipe()
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		serve(back, quit)
	}()
	t.Cleanup(func() {
		close(quit)
		front.Close()
		back.Close()
		<-done
	})
	tc := &timeoutCounter{Conn: front}
	return b.newConn(tc), tc
}

// silent reads what it is sent and never answers.
func silent(nc net.Conn, _ <-chan struct{}) { io.Copy(io.Discard, nc) }

// TestCancelWithinGraceFailsWithinGrace: a cancel that arrives before
// the attempt has registered its abort, on a backend that never
// answers, still ends the attempt — once the grace runs out — with an
// error that wraps context.Canceled.
func TestCancelWithinGraceFailsWithinGrace(t *testing.T) {
	c, _ := pipeConn(t, silent)
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	time.AfterFunc(abortGrace/10, cancel)
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.roundTrip(ctx, httptest.NewRequest(http.MethodGet, "/x", nil), nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want one wrapping context.Canceled", err)
		}
		if took := time.Since(start); took > abortGrace+graceSlack {
			t.Errorf("the attempt took %v after a cancel within the %v grace", took, abortGrace)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the cancel did not end the attempt")
	}
}

// TestCancelAfterGraceAbortsAtOnce: once the grace has run out the
// abort is registered, so a cancel ends the attempt at once; the read
// the abort failed is not tried again.
func TestCancelAfterGraceAbortsAtOnce(t *testing.T) {
	c, tc := pipeConn(t, silent)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.roundTrip(ctx, httptest.NewRequest(http.MethodGet, "/x", nil), nil)
		errc <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); tc.n.Load() == 0; time.Sleep(abortGrace / 4) {
		if time.Now().After(deadline) {
			t.Fatal("the grace deadline never passed")
		}
	}
	time.Sleep(10 * abortGrace) // the abort is registered right after the grace ran out
	canceled := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want one wrapping context.Canceled", err)
		}
		if took := time.Since(canceled); took > graceSlack {
			t.Errorf("the attempt ended %v after the cancel", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the cancel did not abort the attempt")
	}
	if n := tc.n.Load(); n != 2 {
		t.Errorf("%d reads failed on a deadline, want 2: the grace's, tried again, and the abort's, not", n)
	}
}

// TestHeadThenStallPastGrace: a backend that sends the head and then
// pauses longer than the grace before the body still has the body
// delivered byte for byte, and the connection goes back to the pool.
func TestHeadThenStallPastGrace(t *testing.T) {
	body := strings.Repeat("0123456789", 1000)
	d, _, backs := forwardCluster(t, Config{}, "", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		time.Sleep(5 * abortGrace)
		io.WriteString(w, body)
	})
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		resp, err := d.roundTrip(ctx, 0, httptest.NewRequest(http.MethodGet, "/x", nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp)
		resp.Close()
		cancel()
		if err != nil || string(got) != body {
			t.Fatalf("request %d: %d body bytes (%v), want the %d sent", i, len(got), err, len(body))
		}
	}
	if n := backs[0].dials.Load(); n != 1 {
		t.Errorf("%d backend connections for two requests in a row, want 1: the first did not go back to the pool", n)
	}
}

// TestRequestBodyPastGrace: a request body written to a backend that
// stops reading for longer than the grace arrives whole; when the
// backend never reads on, a cancel aborts the write.
func TestRequestBodyPastGrace(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/upload", bytes.NewReader(body))
	}
	t.Run("completes", func(t *testing.T) {
		got := make(chan []byte, 1)
		c, tc := pipeConn(t, func(nc net.Conn, _ <-chan struct{}) {
			req, err := http.ReadRequest(bufio.NewReader(nc))
			if err != nil {
				got <- nil
				return
			}
			time.Sleep(5 * abortGrace)
			b, _ := io.ReadAll(req.Body)
			got <- b
			io.WriteString(nc, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
			io.Copy(io.Discard, nc)
		})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r := post()
		resp, _, err := c.roundTrip(ctx, r, r.Body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp)
		resp.Close()
		if b := <-got; !bytes.Equal(b, body) {
			t.Fatalf("the backend read %d body bytes, want the %d sent", len(b), len(body))
		}
		if tc.n.Load() == 0 {
			t.Error("no write outlasted the grace: the test did not stall the writer")
		}
	})
	t.Run("canceled", func(t *testing.T) {
		c, _ := pipeConn(t, func(nc net.Conn, quit <-chan struct{}) {
			http.ReadRequest(bufio.NewReader(nc))
			<-quit
		})
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(5*abortGrace, cancel)
		start := time.Now()
		r := post()
		_, _, err := c.roundTrip(ctx, r, r.Body)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want one wrapping context.Canceled", err)
		}
		if took := time.Since(start); took > 5*abortGrace+graceSlack {
			t.Errorf("the write ended %v after the attempt began, the cancel came at %v", took, 5*abortGrace)
		}
	})
}

// TestPooledConnectionPastGraceReused: a pooled connection that sat
// idle for longer than the grace serves the next request without an
// error and without a new dial.
func TestPooledConnectionPastGraceReused(t *testing.T) {
	d, _, backs := forwardCluster(t, Config{}, "", nil)
	for i := 0; i < 3; i++ {
		if i > 0 {
			time.Sleep(5 * abortGrace)
		}
		resp, err := d.roundTrip(context.Background(), 0, httptest.NewRequest(http.MethodGet, "/x", nil), nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		got, err := io.ReadAll(resp)
		resp.Close()
		if err != nil || string(got) != "ok" {
			t.Fatalf("request %d: body %q (%v)", i, got, err)
		}
	}
	if n := backs[0].dials.Load(); n != 1 {
		t.Errorf("%d backend connections for three requests in a row, want 1", n)
	}
}

// ownGetAllocsCeiling ratchets the allocations of one prefetch hint or
// probe sent over a pooled connection to a backend that allocates
// nothing: the deadline context (4). It read 14 with the mark's header
// built per call (3), the abort registered per attempt (5), an error
// made for the empty RemoteAddr (1) and the target URL (1), which
// escaped while conn.write handed request fields to the writer, to
// net.SplitHostPort and the body to io.Copy.
const ownGetAllocsCeiling = 4

func TestOwnGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	d, err := New(Config{Backends: []*url.URL{cannedBackend(t, "HTTP/1.1 204 No Content\r\n\r\n")}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	hint := func() {
		if status, err := d.ownGet(0, "/a.html", prefetchMark, time.Second); err != nil || status != http.StatusNoContent {
			t.Fatalf("status %d, %v", status, err)
		}
	}
	for i := 0; i < 10; i++ {
		hint()
	}
	allocs := testing.AllocsPerRun(500, hint)
	t.Logf("%.1f allocs/hint", allocs)
	if allocs > ownGetAllocsCeiling {
		t.Errorf("%.1f allocations per hint, ceiling %d", allocs, ownGetAllocsCeiling)
	}
}

// FuzzRemoteHost holds remoteHost to net.SplitHostPort, whose host and
// verdict it must give for every address.
func FuzzRemoteHost(f *testing.F) {
	for _, addr := range []string{"", "10.0.0.1:80", "[::1]:80", "[fe80::1%eth0]:443", "::1", "a:b:c",
		"[::1]", "[::1]x:80", "[::1]:80:90", "a[b:80", "a]:80", "[a]]:80", "[:80", ":80", "host:"} {
		f.Add(addr)
	}
	f.Fuzz(func(t *testing.T, addr string) {
		host, ok := remoteHost(addr)
		wantHost, _, err := net.SplitHostPort(addr)
		if ok != (err == nil) || ok && host != wantHost {
			t.Fatalf("remoteHost(%q) = %q, %v; SplitHostPort gives %q, %v", addr, host, ok, wantHost, err)
		}
	})
}

// TestCopyStringSpansFlushes writes strings longer than the writer's
// buffer, starting at every fill level: every byte arrives in order.
func TestCopyStringSpansFlushes(t *testing.T) {
	s := strings.Repeat("0123456789", 7)
	for fill := 0; fill < 16; fill++ {
		var out bytes.Buffer
		w := bufio.NewWriterSize(&out, 16)
		w.WriteString(s[:fill])
		copyString(w, s)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := s[:fill] + s; out.String() != want {
			t.Fatalf("fill %d: wrote %q, want %q", fill, out.String(), want)
		}
	}
}

// cannedBackend answers every request head it reads with resp, and
// allocates nothing per request.
func cannedBackend(t *testing.T, resp string) *url.URL {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	answer := []byte(resp)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				br := bufio.NewReader(nc)
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						return
					}
					if len(line) <= 2 {
						if _, err := nc.Write(answer); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return &url.URL{Scheme: "http", Host: ln.Addr().String()}
}
