package dispatch_test

import (
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/policy"
)

// TestUnavailableBackendAvoidedByEveryPolicy routes with every policy
// after making one backend maximally attractive — it holds the file,
// owns the session and may have a request for the file in flight — and
// then taking it out through the Available hook. No decision may land
// on it: load-aware policies see it through the core's view as
// UnavailableLoad with its locality, marks and pins hidden, and
// load-blind WRR decisions are re-routed by the core.
func TestUnavailableBackendAvoidedByEveryPolicy(t *testing.T) {
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			pol, err := policy.ByName(name, 3, policy.Thresholds{})
			if err != nil {
				t.Fatal(err)
			}
			var down atomic.Int32
			down.Store(-1)
			c, err := dispatch.New(dispatch.Config{
				Backends:  3,
				Policy:    pol,
				Available: func(s int, _ time.Time) bool { return int32(s) != down.Load() },
			})
			if err != nil {
				t.Fatal(err)
			}
			now := time.Unix(0, 0)
			const key = "10.0.0.1:1"
			first := c.Route(key, "/a.html", 1024, now)
			if !first.OK {
				t.Fatal("unroutable with every backend up")
			}
			victim := first.Server
			c.Done(key, victim, "/a.html", false, false)
			if again := c.Route(key, "/a.html", 1024, now); again.Server != victim {
				c.Done(key, again.Server, "/a.html", false, false)
			}
			down.Store(int32(victim))
			for i, req := range []struct{ key, path string }{
				{key, "/a.html"},
				{"10.0.0.2:1", "/a.html"},
				{key, "/a.gif"},
			} {
				out := c.Route(req.key, req.path, 1024, now)
				if !out.OK {
					t.Fatalf("request %d unroutable with two backends up", i)
				}
				if out.Server == victim {
					t.Fatalf("%s routed %s on %s to unavailable backend %d", name, req.path, req.key, victim)
				}
				c.Done(req.key, out.Server, req.path, false, false)
			}
		})
	}
}
