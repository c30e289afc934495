package cluster

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"prord/internal/dispatch"
	"prord/internal/policy"
)

// fleetSimDigest runs one full-feature PRORD cluster over the shared
// test workload with the recorder folding the complete decision stream
// into an FNV-1a digest, returning the digest and the run result.
func fleetSimDigest(t *testing.T, distributors int, fleetOn bool) (uint64, *Result) {
	t.Helper()
	tr, m := testWorkload(t, 2000, 11)
	h := fnv.New64a()
	cl, err := New(Config{
		Params:       smallParams(4, 4, 2),
		Policy:       policy.NewPRORD(policy.Thresholds{}),
		Features:     AllFeatures(),
		Miner:        m,
		Distributors: distributors,
		Fleet:        fleetOn,
		Recorder: func(r dispatch.Record) {
			fmt.Fprintf(h, "%d|%d|%s|%d|%d|%d|%t|%t|%t|%t|%t\n",
				r.Seq, r.Conn, r.Path, r.Tier, r.Verdict, r.Server,
				r.Embedded, r.Dispatch, r.Handoff, r.Switched, r.Routed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return h.Sum64(), res
}

// TestFleetSimSingleDistributorIdentical is the k=1 differential: a
// one-member ownership ring must be invisible — same decision stream,
// same metrics, zero forwards.
func TestFleetSimSingleDistributorIdentical(t *testing.T) {
	dOff, rOff := fleetSimDigest(t, 1, false)
	dOn, rOn := fleetSimDigest(t, 1, true)
	if dOn != dOff {
		t.Errorf("k=1 fleet decision digest = %#x, want %#x (ring changed the sim's decision stream)", dOn, dOff)
	}
	if !reflect.DeepEqual(rOn.Metrics, rOff.Metrics) {
		t.Errorf("k=1 fleet metrics diverged:\n fleet: %+v\n plain: %+v", rOn.Metrics, rOff.Metrics)
	}
	if rOff.Fleet != nil {
		t.Error("Fleet result present with Fleet off")
	}
	if rOn.Fleet == nil {
		t.Fatal("Fleet result missing with Fleet on")
	}
	if rOn.Fleet.Replicas != 1 || rOn.Fleet.Forwards != 0 {
		t.Errorf("k=1 fleet block = %+v, want 1 replica, 0 forwards", rOn.Fleet)
	}
}

// TestFleetSimMultiDistributorDeterministic runs the k=4 fleet twice:
// virtual time keeps the run byte-deterministic, every request still
// completes, and a meaningful share of requests pays the forward hop
// (hash-pinned ingress disagrees with ring ownership ~(k-1)/k of the
// time).
func TestFleetSimMultiDistributorDeterministic(t *testing.T) {
	d1, r1 := fleetSimDigest(t, 4, true)
	d2, r2 := fleetSimDigest(t, 4, true)
	if d1 != d2 {
		t.Errorf("k=4 fleet run not deterministic: digests %#x vs %#x", d1, d2)
	}
	if r1.Fleet == nil || r2.Fleet == nil {
		t.Fatal("Fleet result missing")
	}
	if r1.Fleet.Forwards != r2.Fleet.Forwards {
		t.Errorf("forward counts diverged across identical runs: %d vs %d", r1.Fleet.Forwards, r2.Fleet.Forwards)
	}
	if r1.Metrics.Completed == 0 || r1.Metrics.Completed != r2.Metrics.Completed {
		t.Fatalf("completion diverged: %d vs %d", r1.Metrics.Completed, r2.Metrics.Completed)
	}
	if r1.Fleet.Replicas != 4 {
		t.Errorf("Replicas = %d, want 4", r1.Fleet.Replicas)
	}
	if r1.Fleet.Forwards == 0 {
		t.Error("k=4 fleet forwarded nothing; ingress pinning and ring ownership cannot agree on every session")
	}
	if r1.Fleet.ForwardRate <= 0 || r1.Fleet.ForwardRate >= 1 {
		t.Errorf("ForwardRate = %g, want in (0,1)", r1.Fleet.ForwardRate)
	}
	if r1.Metrics.FleetForwards != r1.Fleet.Forwards {
		t.Errorf("collector FleetForwards %d != fleet block %d", r1.Metrics.FleetForwards, r1.Fleet.Forwards)
	}
	// The forward hop costs latency: the k=4 fleet's mean response must
	// not beat a physically identical run by accounting error (weak
	// sanity bound, not a perf assertion).
	if r1.MeanResponse <= 0 {
		t.Error("mean response not positive")
	}
}
