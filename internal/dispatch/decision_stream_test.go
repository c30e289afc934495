package dispatch_test

// Golden test of the core's decision stream: one seeded trace is
// replayed through the core and the complete stream — every Record
// field, every proactive plan — is reduced to an FNV-1a digest and
// compared against a captured constant. A refactor of the core must not
// change a single decision: same policy state evolution, same bundle
// classification, same navigation predictions (the model learns in
// place, per observation), same tier reads, same Seq numbering.

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/trace"
)

// The golden digests of the seeded replays below, re-captured on a
// one-stripe core: striping only relabelled connection ids. The plain
// one was re-captured again when the printed plan lost its category
// list (the overload replay sheds every plan). They change only when
// decision semantics change, and then under ROADMAP's digit contract.
const (
	goldenPlainDigest    uint64 = 0xeeaba12f78b04db0
	goldenOverloadDigest uint64 = 0x366cbd510acd5aec
)

// replayDigest replays a seeded synthetic trace through a PRORD core
// with every proactive feature enabled and digests the full decision
// stream: admission verdicts, routing records and proactive plans. A
// non-nil ov turns the overload ladder on.
func replayDigest(t *testing.T, ov *overload.Config) uint64 {
	t.Helper()
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, 800.0/30000.0, 4242)
	if err != nil {
		t.Fatal(err)
	}
	train, eval := full.Split(0.4)
	m := mining.Mine(train, mining.Options{})

	h := fnv.New64a()
	c, err := dispatch.New(dispatch.Config{
		Backends: 4,
		Policy:   policy.NewPRORD(policy.Thresholds{}),
		Miner:    m,
		Features: dispatch.Features{Bundle: true, NavPrefetch: true},
		Overload: ov,
		Recorder: func(r dispatch.Record) {
			fmt.Fprintf(h, "R|%d|%d|%s|%d|%d|%d|%t|%t|%t|%t|%t\n",
				r.Seq, r.Conn, r.Path, r.Tier, r.Verdict, r.Server,
				r.Embedded, r.Dispatch, r.Handoff, r.Switched, r.Routed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	now := time.Unix(0, 0)
	for i := range eval.Requests {
		r := &eval.Requests[i]
		key := fmt.Sprintf("sess-%d", r.Session)
		if ov != nil {
			v, _ := c.Admit(key, r.Path, now, nil)
			if v == dispatch.Shed {
				now = now.Add(50 * time.Millisecond)
				continue
			}
		}
		out := c.Route(key, r.Path, r.Size, now)
		if !out.OK {
			if ov != nil {
				c.GateLeave()
			}
			continue
		}
		if !trace.IsEmbeddedPath(r.Path) {
			if plan, ok := c.PlanProactive(key, out.Server, r.Path, now); ok {
				fmt.Fprintf(h, "P|%d|%v|%v\n", plan.Server, plan.Bundle, plan.Nav)
			}
		}
		c.Done(key, out.Server, r.Path, false, false)
		if ov != nil {
			c.FinishRequest(now, 3*time.Millisecond)
		}
		now = now.Add(50 * time.Millisecond)
	}
	return h.Sum64()
}

// hairTriggerOverload lifts the ladder to Elevated on the first routed
// request and holds it there, so tier reads and the tier-driven
// proactive suppression are part of the digested stream.
func hairTriggerOverload() *overload.Config {
	return &overload.Config{
		CapacityPerBackend: 100,
		ElevatedAt:         0.0001,
		SaturatedAt:        0.8,
		CriticalAt:         0.9,
		MinHold:            time.Hour,
	}
}

// TestDecisionStreamGolden pins the core's decision stream, without and
// with the overload ladder, to its golden digests.
func TestDecisionStreamGolden(t *testing.T) {
	if got := replayDigest(t, nil); got != goldenPlainDigest {
		t.Errorf("plain replay digest = %#x, want %#x (the decision stream diverged from its golden)", got, goldenPlainDigest)
	}
	if got := replayDigest(t, hairTriggerOverload()); got != goldenOverloadDigest {
		t.Errorf("overload replay digest = %#x, want %#x (the tiered decision stream diverged from its golden)", got, goldenOverloadDigest)
	}
}
