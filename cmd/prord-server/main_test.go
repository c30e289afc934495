package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"prord/internal/httpfront"
)

// cluster starts one demo backend behind a distributor.
func cluster(t *testing.T) (*httpfront.Distributor, []*httpfront.DemoBackend) {
	t.Helper()
	demo := httpfront.NewDemoBackend("backend-0", map[string]int64{"/a.html": 100}, 1<<20, 0)
	back := httptest.NewServer(demo)
	t.Cleanup(back.Close)
	u, err := url.Parse(back.URL)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := httpfront.New(httpfront.Config{Backends: []*url.URL{u}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dist.Close)
	return dist, []*httpfront.DemoBackend{demo}
}

func fetch(t *testing.T, base, path string) (*http.Response, string) {
	t.Helper()
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// TestAdminMux: the admin listener answers the distributor's counters,
// the cluster document and net/http/pprof's index.
func TestAdminMux(t *testing.T) {
	dist, demos := cluster(t)
	admin := httptest.NewServer(adminMux(dist, demos))
	defer admin.Close()
	for _, path := range []string{"/_prord/stats", "/_prord/cluster"} {
		resp, body := fetch(t, admin.URL, path)
		var doc map[string]any
		if resp.StatusCode != http.StatusOK || json.Unmarshal([]byte(body), &doc) != nil {
			t.Errorf("%s: status %d, body %q, want a JSON document", path, resp.StatusCode, body)
		}
	}
	var cluster struct {
		Health []httpfront.BackendHealth `json:"health"`
	}
	if _, body := fetch(t, admin.URL, "/_prord/cluster"); json.Unmarshal([]byte(body), &cluster) != nil || len(cluster.Health) != 1 {
		t.Errorf("/_prord/cluster: %q, want one backend's health", body)
	}
	if resp, body := fetch(t, admin.URL, "/debug/pprof/"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status %d, body without the profile list", resp.StatusCode)
	}
}

// TestPublicListenerProxiesEveryPath: the public listener serves the
// distributor bare, so /_prord/* is a path like any other and goes to a
// backend; the counters are not reachable from outside.
func TestPublicListenerProxiesEveryPath(t *testing.T) {
	dist, _ := cluster(t)
	public := httptest.NewServer(dist)
	defer public.Close()
	for _, path := range []string{"/_prord/stats", "/_prord/cluster", "/debug/pprof/"} {
		resp, body := fetch(t, public.URL, path)
		// The demo backend does not hold the file: its own 404 comes
		// back through the distributor.
		if resp.StatusCode != http.StatusNotFound || resp.Header.Get(httpfront.BackendHeader) != "0" {
			t.Errorf("%s: status %d, backend %q, body %q; want the backend's 404", path,
				resp.StatusCode, resp.Header.Get(httpfront.BackendHeader), body)
		}
	}
	if resp, _ := fetch(t, public.URL, "/a.html"); resp.StatusCode != http.StatusOK {
		t.Errorf("/a.html: status %d", resp.StatusCode)
	}
	if st := dist.Stats(); st.Requests != 4 {
		t.Errorf("the distributor counted %d requests, want all 4", st.Requests)
	}
}
