package httpfront

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"prord/internal/cache"
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
	name        string
	files       map[string]int64
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

// NewDemoBackend builds a backend named name serving the given file table
// (path -> size) with cacheBytes of memory and the given miss latency.
func NewDemoBackend(name string, files map[string]int64, cacheBytes int64, missLatency time.Duration) *DemoBackend {
	return &DemoBackend{
		name:        name,
		files:       files,
		missLatency: missLatency,
		cache:       cache.NewLRU(cacheBytes),
	}
}

// Stats returns a snapshot of the backend's counters.
func (b *DemoBackend) Stats() DemoStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// ensureResident loads the file into memory, reporting whether it was
// already there. The simulated disk read happens outside the lock.
func (b *DemoBackend) ensureResident(path string, size int64) (hit bool) {
	b.mu.Lock()
	if b.cache.Touch(path) {
		b.mu.Unlock()
		return true
	}
	b.mu.Unlock()
	if b.missLatency > 0 {
		time.Sleep(b.missLatency)
	}
	b.mu.Lock()
	b.cache.Insert(path, size)
	b.mu.Unlock()
	return false
}

// ServeHTTP implements http.Handler.
func (b *DemoBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ProbeHeader) != "" {
		// Health probes just confirm the process answers; no content,
		// no cache side effects, no stats.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	size, ok := b.files[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	if r.Header.Get(PrefetchHeader) != "" {
		b.ensureResident(r.URL.Path, size)
		b.mu.Lock()
		b.stats.Prefetches++
		b.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	hit := b.ensureResident(r.URL.Path, size)
	b.mu.Lock()
	b.stats.Served++
	if hit {
		b.stats.Hits++
	} else {
		b.stats.Misses++
	}
	b.mu.Unlock()

	state := "miss"
	if hit {
		state = "hit"
	}
	w.Header().Set(CacheStateHeader, state)
	w.Header().Set("X-Prord-Server", b.name)
	w.Header().Set("Content-Type", contentType(r.URL.Path))
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	// Deterministic pseudo-content: the path repeated to the file size.
	pattern := []byte(fmt.Sprintf("<!-- %s -->\n", r.URL.Path))
	var written int64
	for written < size {
		chunk := pattern
		if rest := size - written; rest < int64(len(chunk)) {
			chunk = chunk[:rest]
		}
		n, err := w.Write(chunk)
		if err != nil {
			return
		}
		written += int64(n)
	}
}

func contentType(path string) string {
	switch {
	case len(path) > 4 && path[len(path)-4:] == ".gif":
		return "image/gif"
	case len(path) > 4 && path[len(path)-4:] == ".css":
		return "text/css"
	default:
		return "text/html; charset=utf-8"
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
		Distributor Stats           `json:"distributor"`
		Health      []BackendHealth `json:"health"`
		Overload    *OverloadState  `json:"overload,omitempty"`
		Gray        *GrayStats      `json:"gray,omitempty"`
		Backends    []DemoStats     `json:"backends"`
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
