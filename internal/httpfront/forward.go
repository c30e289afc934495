package httpfront

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// newTransport builds the transport every backend-bound request —
// demand, prefetch hint, probe — goes through. A proxy passes
// Accept-Encoding through rather than negotiating and inflating, the
// backends are addressed directly, never via an environment proxy, and
// the idle cap is a constant well above any per-backend concurrency, so
// a connection finishing a request is kept, not closed and redialed.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		DisableCompression:    true,
		MaxIdleConnsPerHost:   256,
		IdleConnTimeout:       90 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
}

// hopHeaders are the hop-by-hop headers (RFC 2616 §13.5.1) stripped in
// both directions on top of whatever Connection lists.
var hopHeaders = [...]string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func stripHopByHop(h http.Header) {
	for _, f := range h["Connection"] {
		for f != "" {
			var name string
			name, f, _ = strings.Cut(f, ",")
			if name = strings.TrimSpace(name); name != "" {
				h.Del(name)
			}
		}
	}
	for _, f := range hopHeaders {
		delete(h, f)
	}
}

// noUserAgent stops the transport from inventing a User-Agent for a
// client that sent none.
var noUserAgent = []string{""}

// prepareOutbound turns the inbound header map into the outbound one,
// once per request: every attempt and hedge leg then shares it
// read-only.
func prepareOutbound(r *http.Request) {
	stripHopByHop(r.Header)
	if ip, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		if prior := r.Header["X-Forwarded-For"]; len(prior) > 0 {
			ip = strings.Join(prior, ", ") + ", " + ip
		}
		r.Header.Set("X-Forwarded-For", ip)
	}
	if _, ok := r.Header["User-Agent"]; !ok {
		r.Header["User-Agent"] = noUserAgent
	}
}

// joinPath joins a backend's base path and a request path with exactly
// one slash between them, in both the decoded and the escaped form.
func joinPath(a, b *url.URL) (path, rawPath string) {
	apath, bpath := a.EscapedPath(), b.EscapedPath()
	switch aslash, bslash := strings.HasSuffix(apath, "/"), strings.HasPrefix(bpath, "/"); {
	case aslash && bslash:
		path, rawPath = a.Path+b.Path[1:], apath+bpath[1:]
	case !aslash && !bslash:
		path, rawPath = a.Path+"/"+b.Path, apath+"/"+bpath
	default:
		path, rawPath = a.Path+b.Path, apath+bpath
	}
	return path, rawPath
}

// roundTrip is one attempt: the prepared request re-addressed to a
// backend (its Host and headers reach the backend as the client sent
// them) and sent over the owned transport. Canceling ctx abandons the
// attempt, response body included.
func (d *Distributor) roundTrip(ctx context.Context, server int, r *http.Request) (*http.Response, error) {
	base := d.cfg.Backends[server]
	out := r.WithContext(ctx)
	u := *r.URL
	u.Scheme, u.Host = base.Scheme, base.Host
	u.Path, u.RawPath = joinPath(base, r.URL)
	if base.RawQuery != "" && u.RawQuery != "" {
		u.RawQuery = base.RawQuery + "&" + u.RawQuery
	} else {
		u.RawQuery = base.RawQuery + u.RawQuery
	}
	out.URL = &u
	out.Close = false
	if r.ContentLength == 0 {
		out.Body = nil
	}
	return d.transport.RoundTrip(out)
}

// copyBufs holds the 32 KB buffers response bodies are copied through.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// deliver commits a backend response to the client: the head's header
// slices are handed over as they are, then the body streams through a
// pooled buffer — flushed per write when the backend announced no
// length, so a streaming backend streams through — and its trailers
// follow. It returns the error of a backend read that failed
// after the head was committed; a failed write is the client's and
// only ends the copy.
func (d *Distributor) deliver(w http.ResponseWriter, server int, resp *http.Response) (readErr error) {
	defer resp.Body.Close()
	stripHopByHop(resp.Header)
	h := w.Header()
	for k, vv := range resp.Header {
		h[k] = vv
	}
	h[BackendHeader] = d.backendIDs[server]
	w.WriteHeader(resp.StatusCode)
	var flush *http.ResponseController
	if resp.ContentLength < 0 {
		flush = http.NewResponseController(w)
	}
	if resp.Body != http.NoBody {
		bufp := copyBufs.Get().(*[]byte)
		defer copyBufs.Put(bufp)
		for {
			n, err := resp.Body.Read(*bufp)
			if n > 0 {
				if _, werr := w.Write((*bufp)[:n]); werr != nil {
					return nil
				}
				if flush != nil {
					// A writer that cannot flush just buffers.
					_ = flush.Flush()
				}
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
	}
	if len(resp.Trailer) > 0 && flush != nil {
		// Trailers need a chunked body; an unflushed empty one would be
		// given a Content-Length.
		_ = flush.Flush()
	}
	for k, vv := range resp.Trailer {
		// The prefix form needs no announcement before the head.
		h[http.TrailerPrefix+k] = vv
	}
	return nil
}

// writeBare answers with a status and its text where there is no
// backend response to pass through: a transport error, or a failure
// that was swallowed for a retry that then found no healthy backend.
func (d *Distributor) writeBare(w http.ResponseWriter, server, status int) {
	h := w.Header()
	h[BackendHeader] = d.backendIDs[server]
	h.Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	io.WriteString(w, http.StatusText(status)+"\n")
}
