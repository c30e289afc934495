package httpfront

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"prord/internal/cache"
	"prord/internal/dispatch"
)

// CacheStateHeader reports whether a demo backend served from memory
// ("hit") or simulated disk ("miss").
const CacheStateHeader = "X-Prord-Cache"

// DemoBackend is a self-contained backend server for demos and tests: it
// serves deterministic pseudo-content for a fixed file table, keeps an
// in-memory LRU over the files, and sleeps MissLatency when a file is not
// resident (the "disk"). Prefetch-hinted requests (PrefetchHeader) warm
// the cache and return 204 without a body.
type DemoBackend struct {
	files       map[string]*demoFile
	server      []string // the X-Prord-Server value
	missLatency time.Duration

	mu    sync.Mutex
	cache *cache.LRU
	stats DemoStats
}

// DemoStats are a demo backend's counters.
type DemoStats struct {
	Served     int64 `json:"served"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Prefetches int64 `json:"prefetches"`
}

// demoFile is one file's response, built once: the content pattern and
// the header values, which responses share read-only. Whole bodies are
// never held.
type demoFile struct {
	size        int64
	pattern     []byte
	contentType []string
	length      []string
}

// The shared CacheStateHeader values and Content-Type values.
var (
	cacheHit  = []string{"hit"}
	cacheMiss = []string{"miss"}
	typeGIF   = []string{"image/gif"}
	typeCSS   = []string{"text/css"}
	typeHTML  = []string{"text/html; charset=utf-8"}
)

// NewDemoBackend builds a backend named name serving the given file table
// (path -> size) with cacheBytes of memory and the given miss latency.
func NewDemoBackend(name string, files map[string]int64, cacheBytes int64, missLatency time.Duration) *DemoBackend {
	b := &DemoBackend{
		files:       make(map[string]*demoFile, len(files)),
		server:      []string{name},
		missLatency: missLatency,
		cache:       cache.NewLRU(cacheBytes),
	}
	for path, size := range files {
		b.files[path] = &demoFile{
			size: size,
			// Deterministic pseudo-content: the path repeated to the
			// file size.
			pattern:     []byte("<!-- " + path + " -->\n"),
			contentType: contentType(path),
			length:      []string{strconv.FormatInt(size, 10)},
		}
	}
	return b
}

// Stats returns a snapshot of the backend's counters.
func (b *DemoBackend) Stats() DemoStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// ensureResident loads the file into memory, reporting whether it was
// already there, and counts the request in the same critical section: a
// demand request as served and a hit or miss, a prefetch as a prefetch.
// The simulated disk read happens outside the lock.
func (b *DemoBackend) ensureResident(path string, size int64, prefetch bool) (hit bool) {
	b.mu.Lock()
	if hit = b.cache.Touch(path); !hit {
		b.mu.Unlock()
		if b.missLatency > 0 {
			time.Sleep(b.missLatency)
		}
		b.mu.Lock()
		b.cache.Insert(path, size)
	}
	switch {
	case prefetch:
		b.stats.Prefetches++
	case hit:
		b.stats.Served++
		b.stats.Hits++
	default:
		b.stats.Served++
		b.stats.Misses++
	}
	b.mu.Unlock()
	return hit
}

// ServeHTTP implements http.Handler.
func (b *DemoBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ProbeHeader) != "" {
		// Health probes just confirm the process answers; no content,
		// no cache side effects, no stats.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	f, ok := b.files[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	if r.Header.Get(PrefetchHeader) != "" {
		b.ensureResident(r.URL.Path, f.size, true)
		w.WriteHeader(http.StatusNoContent)
		return
	}
	hit := b.ensureResident(r.URL.Path, f.size, false)

	h := w.Header()
	h[CacheStateHeader] = cacheMiss
	if hit {
		h[CacheStateHeader] = cacheHit
	}
	h["X-Prord-Server"] = b.server
	h["Content-Type"] = f.contentType
	h["Content-Length"] = f.length
	f.writeBody(w)
}

// writeBody writes the file's content: the pattern repeated and cut at
// the file size. The body goes out in blocks of a pooled copy buffer
// filled with whole repetitions of the pattern, so every block starts
// at the pattern's first byte; a pattern longer than the buffer is its
// own block.
func (f *demoFile) writeBody(w http.ResponseWriter) {
	block := f.pattern
	if f.size > int64(len(block)) && len(block) <= copyBufSize {
		bufp := copyBufs.Get().(*[]byte)
		defer copyBufs.Put(bufp)
		buf := *bufp
		n := len(buf) / len(block) * len(block)
		if f.size < int64(n) {
			// One block holds the whole body.
			n = int(f.size)
		}
		copy(buf, block)
		for filled := len(block); filled < n; filled *= 2 {
			copy(buf[filled:n], buf[:filled])
		}
		block = buf[:n]
	}
	for written := int64(0); written < f.size; {
		chunk := block
		if rest := f.size - written; rest < int64(len(chunk)) {
			chunk = chunk[:rest]
		}
		n, err := w.Write(chunk)
		if err != nil {
			return
		}
		written += int64(n)
	}
}

func contentType(path string) []string {
	switch {
	case len(path) > 4 && path[len(path)-4:] == ".gif":
		return typeGIF
	case len(path) > 4 && path[len(path)-4:] == ".css":
		return typeCSS
	default:
		return typeHTML
	}
}

// StatsHandler serves a distributor's counters as JSON; mount it on an
// operations endpoint.
func StatsHandler(d *Distributor) http.Handler {
	return jsonHandler(func() any { return d.Stats() })
}

// StatsHandler serves the backend's own counters as JSON; mount it on
// the backend's operations endpoint so the front-end (or a load
// generator) can scrape per-backend cache behaviour.
func (b *DemoBackend) StatsHandler() http.Handler {
	return jsonHandler(func() any { return b.Stats() })
}

// ClusterStatsHandler serves the whole live cluster's state in one
// document: the distributor's counters, per-backend health, the
// overload layer's tier and ladder history (when enabled), and each
// demo backend's counters, in backend order.
func ClusterStatsHandler(d *Distributor, backends []*DemoBackend) http.Handler {
	type payload struct {
		Distributor Stats                      `json:"distributor"`
		Health      []BackendHealth            `json:"health"`
		Overload    *dispatch.OverloadSnapshot `json:"overload,omitempty"`
		Gray        *dispatch.GrayStats        `json:"gray,omitempty"`
		Backends    []DemoStats                `json:"backends"`
	}
	return jsonHandler(func() any {
		p := payload{Distributor: d.Stats(), Health: d.Health(),
			Overload: d.Overload(), Gray: d.Gray()}
		for _, b := range backends {
			p.Backends = append(p.Backends, b.Stats())
		}
		return p
	})
}

// jsonHandler wraps a snapshot function as a JSON GET endpoint.
func jsonHandler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
