package httpfront

import (
	"io"
	"net/http"
	"strings"
	"sync"
)

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

// copyBufSize is the size of the buffers in copyBufs.
const copyBufSize = 32 << 10

// copyBufs holds the buffers response bodies are copied through.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, copyBufSize)
	return &b
}}

// deliver commits a backend response to the client: the head's fields
// are handed over as the value slices they were read into, minus the
// hop-by-hop ones and, for a chunked body, Content-Length; then the
// body streams through a pooled buffer — flushed per write when the
// backend announced no length, so a streaming backend streams through —
// and its trailers follow. It returns the error of a backend read that
// failed after the head was committed; a failed write is the client's
// and only ends the copy.
func (d *Distributor) deliver(w http.ResponseWriter, server int, h *head, body io.Reader) (readErr error) {
	hdr := w.Header()
	for _, f := range h.fields {
		if hopByHop(h, f.key) || h.chunked && f.key == "Content-Length" {
			continue
		}
		if vv, ok := hdr[f.key]; ok {
			hdr[f.key] = append(vv, f.vals[0])
		} else {
			hdr[f.key] = f.vals
		}
	}
	hdr[BackendHeader] = d.backendIDs[server]
	w.WriteHeader(h.status)
	var flush *http.ResponseController
	if h.length < 0 {
		flush = http.NewResponseController(w)
	}
	if h.length != 0 {
		bufp := copyBufs.Get().(*[]byte)
		defer copyBufs.Put(bufp)
		for {
			n, err := body.Read(*bufp)
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
	if len(h.trailer) > 0 && flush != nil {
		// Trailers need a chunked body; an unflushed empty one would be
		// given a Content-Length.
		_ = flush.Flush()
	}
	for k, vv := range h.trailer {
		// The prefix form needs no announcement before the head.
		hdr[http.TrailerPrefix+k] = vv
	}
	return nil
}

// hopByHop reports whether a response field stops at the front-end: one
// of hopHeaders, or a name the head's Connection fields list.
func hopByHop(h *head, key string) bool {
	for _, hop := range hopHeaders {
		if key == hop {
			return true
		}
	}
	for _, f := range h.fields {
		if f.key == "Connection" && listContains(f.vals[0], key) {
			return true
		}
	}
	return false
}

// writeBare answers with a status and its text where there is no
// backend response to pass through: a transport error.
func (d *Distributor) writeBare(w http.ResponseWriter, server, status int) {
	h := w.Header()
	h[BackendHeader] = d.backendIDs[server]
	h.Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	io.WriteString(w, http.StatusText(status)+"\n")
}
