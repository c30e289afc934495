package httpfront

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The backend client: every backend-bound request — demand attempt,
// hedge leg, prefetch hint, probe — is one write and one read on the
// caller's goroutine, over a connection taken from the backend's pool.
// No goroutine runs per connection.

const (
	// maxIdlePerBackend is a constant well above any per-backend
	// concurrency, so a connection finishing a request is kept, not
	// closed and redialed.
	maxIdlePerBackend = 256
	// idleTimeout retires a connection idle for longer, when it is next
	// taken.
	idleTimeout = 90 * time.Second
	// max1xx bounds the interim heads read past before the final one.
	max1xx = 5
)

var backendDialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

// aLongTimeAgo is a deadline in the past: set on a connection, it fails
// every pending and later read and write at once.
var aLongTimeAgo = time.Unix(1, 0)

// backend is one backend's address and its pool of idle connections: a
// LIFO stack, so the connection most recently known good goes out first.
type backend struct {
	addr string // host:port to dial
	host string // the Host a request carries when the client sent none
	// path and query are the base URL's escaped path and query, joined
	// onto every request target.
	path, query string

	// mu guards the stack and is held only to push and pop: never
	// across a dial or any I/O.
	mu     sync.Mutex
	idle   []*conn
	closed bool
}

func newBackend(u *url.URL) (*backend, error) {
	if u.Scheme != "http" || u.Host == "" {
		return nil, fmt.Errorf("httpfront: backend %q is not an http://host URL", u)
	}
	port := u.Port()
	if port == "" {
		port = "80"
	}
	return &backend{
		addr:  net.JoinHostPort(u.Hostname(), port),
		host:  u.Host,
		path:  u.EscapedPath(),
		query: u.RawQuery,
	}, nil
}

// writeTarget writes a request target: the base path and the request's
// escaped path with exactly one slash between them, then the base query
// and the request's query joined with "&". Demand requests, prefetch
// hints and probes all address a backend through it.
func (b *backend) writeTarget(w *bufio.Writer, path, query string) {
	w.WriteString(b.path)
	switch aslash, bslash := strings.HasSuffix(b.path, "/"), strings.HasPrefix(path, "/"); {
	case aslash && bslash:
		path = path[1:]
	case !aslash && !bslash:
		w.WriteByte('/')
	}
	w.WriteString(path)
	if b.query == "" && query == "" {
		return
	}
	w.WriteByte('?')
	w.WriteString(b.query)
	if b.query != "" && query != "" {
		w.WriteByte('&')
	}
	w.WriteString(query)
}

// pop takes the most recently pushed idle connection, closing any that
// sat idle too long; nil when none is left.
func (b *backend) pop() *conn {
	now := time.Now()
	for {
		b.mu.Lock()
		n := len(b.idle)
		if n == 0 {
			b.mu.Unlock()
			return nil
		}
		c := b.idle[n-1]
		b.idle[n-1] = nil
		b.idle = b.idle[:n-1]
		b.mu.Unlock()
		if now.Sub(c.idleAt) <= idleTimeout {
			return c
		}
		c.nc.Close()
	}
}

// push returns a connection to the pool, or closes it when the pool is
// full or closed.
func (b *backend) push(c *conn) {
	c.idleAt = time.Now()
	b.mu.Lock()
	if !b.closed && len(b.idle) < maxIdlePerBackend {
		b.idle = append(b.idle, c)
		b.mu.Unlock()
		return
	}
	b.mu.Unlock()
	c.nc.Close()
}

// close closes the idle connections and marks the pool closed, so that
// a connection still in use is closed when its response is.
func (b *backend) close() {
	b.mu.Lock()
	idle := b.idle
	b.idle, b.closed = nil, true
	b.mu.Unlock()
	for _, c := range idle {
		c.nc.Close()
	}
}

func (b *backend) dial(ctx context.Context) (*conn, error) {
	nc, err := backendDialer.DialContext(ctx, "tcp", b.addr)
	if err != nil {
		return nil, err
	}
	c := &conn{b: b, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	c.hr = newHeadReader(c.br, maxHeadBytes)
	c.abort = func() { nc.SetDeadline(aLongTimeAgo) }
	return c, nil
}

// conn is one persistent connection to a backend and everything a
// request on it reuses.
type conn struct {
	b      *backend
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	hr     headReader
	resp   response
	num    [20]byte
	idleAt time.Time
	// abort fails the connection's I/O; it is bound once, at dial.
	abort func()

	// ctx is the request in flight's context, and stop unregisters
	// abort from it.
	ctx  context.Context
	stop func() bool
}

// response is a backend's answer: the head, and the body as an
// io.Reader. Close it exactly once; the connection goes back to its
// pool then if the body was read to its end.
type response struct {
	head
	body
	c *conn
}

func (r *response) Read(p []byte) (int, error) {
	n, err := r.body.Read(p)
	if err != nil && err != io.EOF {
		err = failure(r.c.ctx, err)
	}
	return n, err
}

// Close releases the connection: back to the pool if the answer was
// HTTP/1.1 without Connection: close, its body was read to the end and
// no abort fired; closed otherwise.
func (r *response) Close() error {
	c := r.c
	r.c = nil
	c.release(r.minor == 1 && !r.close && r.eof && r.err == nil)
	return nil
}

// roundTrip sends r and reads the response head, reading past interim
// 1xx heads; a 101 is a failure, since upgrades are not forwarded. stale
// marks a failure before any response byte arrived — a write error, or
// EOF or reset on the first read — which on a pooled connection means
// the backend had closed it while it sat idle.
func (c *conn) roundTrip(ctx context.Context, r *http.Request) (resp *response, stale bool, err error) {
	c.ctx = ctx
	c.stop = context.AfterFunc(ctx, c.abort)
	if err := c.write(r); err != nil {
		return nil, true, c.fail(err)
	}
	if _, err := c.br.Peek(1); err != nil {
		return nil, true, c.fail(err)
	}
	resp = &c.resp
	for n := 0; ; n++ {
		if err := c.hr.read(&resp.head, r.Method); err != nil {
			return nil, false, c.fail(err)
		}
		switch {
		case resp.status == http.StatusSwitchingProtocols:
			return nil, false, c.fail(fmt.Errorf("httpfront: backend answered 101 Switching Protocols"))
		case resp.status >= 200:
			resp.c = c
			resp.body.reset(c.br, &resp.head)
			return resp, false, nil
		case n == max1xx:
			return nil, false, c.fail(fmt.Errorf("httpfront: more than %d interim responses", max1xx))
		}
	}
}

// write sends the request line, Host, the prepared header fields and
// the body: with Content-Length when its length is known, chunked when
// not.
func (c *conn) write(r *http.Request) error {
	w := c.bw
	w.WriteString(r.Method)
	w.WriteByte(' ')
	c.b.writeTarget(w, r.URL.EscapedPath(), r.URL.RawQuery)
	w.WriteString(" HTTP/1.1\r\nHost: ")
	if r.Host != "" {
		w.WriteString(r.Host)
	} else {
		w.WriteString(c.b.host)
	}
	w.WriteString("\r\n")
	//lint:ignore maporder the order of fields with different names carries no meaning (RFC 7230 §3.2.2); one name's values keep theirs
	for k, vv := range r.Header {
		switch k {
		case "Host", "Content-Length", "Transfer-Encoding", "Trailer":
			continue
		}
		for _, v := range vv {
			if v == "" && k == "User-Agent" {
				continue
			}
			w.WriteString(k)
			w.WriteString(": ")
			w.WriteString(v)
			w.WriteString("\r\n")
		}
	}
	hasBody := r.ContentLength != 0 && r.Body != nil && r.Body != http.NoBody
	switch {
	case !hasBody:
	case r.ContentLength > 0:
		w.WriteString("Content-Length: ")
		w.Write(strconv.AppendInt(c.num[:0], r.ContentLength, 10))
		w.WriteString("\r\n")
	default:
		w.WriteString("Transfer-Encoding: chunked\r\n")
	}
	w.WriteString("\r\n")
	if hasBody {
		if err := c.writeBody(r); err != nil {
			return err
		}
	}
	return w.Flush()
}

func (c *conn) writeBody(r *http.Request) error {
	if r.ContentLength > 0 {
		_, err := io.Copy(c.bw, r.Body)
		return err
	}
	cw := httputil.NewChunkedWriter(c.bw)
	if _, err := io.Copy(cw, r.Body); err != nil {
		return err
	}
	if err := cw.Close(); err != nil {
		return err
	}
	_, err := c.bw.WriteString("\r\n")
	return err
}

// failure wraps err with ctx's error once ctx is done, so a canceled or
// expired attempt reads as such.
func failure(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("%w: %v", cerr, err)
	}
	return err
}

// fail closes the connection after a failed round trip.
func (c *conn) fail(err error) error {
	err = failure(c.ctx, err)
	c.release(false)
	return err
}

// release ends the request on the connection: it goes back to the pool
// when reuse holds, the abort did not fire and the backend sent nothing
// past the response, and is closed otherwise.
func (c *conn) release(reuse bool) {
	if !c.stop() || c.br.Buffered() > 0 {
		reuse = false
	}
	c.stop, c.ctx = nil, nil
	if reuse {
		c.b.push(c)
	} else {
		c.nc.Close()
	}
}

// body reads a response body as its head frames it.
type body struct {
	br     *bufio.Reader
	h      *head
	remain int64
	chunks io.Reader
	eof    bool
	err    error
}

func (b *body) reset(br *bufio.Reader, h *head) {
	*b = body{br: br, h: h, remain: h.length, eof: h.length == 0}
	if h.chunked {
		b.chunks = httputil.NewChunkedReader(br)
	}
}

func (b *body) Read(p []byte) (n int, err error) {
	switch {
	case b.err != nil:
		return 0, b.err
	case b.eof:
		return 0, io.EOF
	case b.chunks != nil:
		n, err = b.chunks.Read(p)
		if err == io.EOF {
			if b.h.trailer, err = readTrailer(b.br); err == nil {
				err = io.EOF
			}
		}
	case b.h.untilEOF:
		n, err = b.br.Read(p)
	default:
		if int64(len(p)) > b.remain {
			p = p[:b.remain]
		}
		n, err = b.br.Read(p)
		if b.remain -= int64(n); b.remain == 0 {
			err = io.EOF
		} else if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
	}
	if err == io.EOF {
		b.eof = true
	} else if err != nil {
		b.err = err
	}
	return n, err
}

// roundTrip is one attempt: the prepared request sent to a backend, its
// Host and headers as the client sent them, over a pooled connection or
// a new one. Canceling ctx abandons the attempt, response body
// included, and the error then wraps ctx.Err(). A pooled connection
// that fails before any response byte is one the backend closed while
// it sat idle: a request without a body is sent once more on a new
// connection, so an idle-closing backend shows no error.
func (d *Distributor) roundTrip(ctx context.Context, server int, r *http.Request) (*response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b := d.backends[server]
	c := b.pop()
	if c == nil {
		return dialAndSend(ctx, b, r)
	}
	resp, stale, err := c.roundTrip(ctx, r)
	if err != nil && stale && r.ContentLength == 0 && ctx.Err() == nil {
		return dialAndSend(ctx, b, r)
	}
	return resp, err
}

func dialAndSend(ctx context.Context, b *backend, r *http.Request) (*response, error) {
	c, err := b.dial(ctx)
	if err != nil {
		return nil, failure(ctx, err)
	}
	resp, _, err := c.roundTrip(ctx, r)
	return resp, err
}
