package dispatch_test

// Decision-path microbenchmarks for the shared PRORD core. The
// benchmarks measure the Route/Done pair — the work both adapters pay
// per demand request — with no transport, policy-visible I/O, or
// overload layer attached.
//
// BenchmarkDispatch is single-goroutine decision latency.
// BenchmarkDispatchParallel drives the same mix from all cores: the
// routing read path takes no global lock — policy inputs are fixed at
// New, policy state is striped, and booking runs on
// striped shard locks — so decisions per second scale with
// GOMAXPROCS, and the steady-state pair allocates nothing (asserted
// by TestRouteDoneAllocs).

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/policy"
)

// benchCore builds an optimistic-mode core the way the live front-end
// does: PRORD policy, default locality/session bounds, no overload
// layer (Admit would dominate Route in the gateless common case).
func benchCore(b *testing.B, backends int) *dispatch.Core {
	b.Helper()
	c, err := dispatch.New(dispatch.Config{
		Backends: backends,
		Policy:   policy.NewPRORD(policy.Thresholds{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// benchPaths is a static working set large enough to spread across
// every file shard and small enough to stay resident in the locality
// maps, so steady-state Route decisions hit the LARD fast paths.
func benchPaths(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/g%d/p%d.html", i%4, i)
	}
	return out
}

func benchKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.%d.%d:1234", i/256, i%256)
	}
	return out
}

func BenchmarkDispatch(b *testing.B) {
	c := benchCore(b, 8)
	paths := benchPaths(512)
	keys := benchKeys(64)
	now := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, path := keys[i%len(keys)], paths[i%len(paths)]
		out := c.Route(key, path, 4096, now)
		c.Done(key, out.Server, path, false, false)
	}
}

func BenchmarkDispatchParallel(b *testing.B) {
	c := benchCore(b, 8)
	paths := benchPaths(512)
	keys := benchKeys(256)
	now := time.Unix(0, 0)
	var gid atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine replays its own client population so session
		// state spreads across the lock stripes like real traffic does.
		g := int(gid.Add(1))
		i := 0
		for pb.Next() {
			key := keys[(g*31+i)%len(keys)]
			path := paths[(g*17+i)%len(paths)]
			out := c.Route(key, path, 4096, now)
			c.Done(key, out.Server, path, false, false)
			i++
		}
	})
}
