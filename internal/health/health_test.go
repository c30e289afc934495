package health

import (
	"testing"
	"time"

	"prord/internal/randutil"
)

// clock is a synthetic clock for driving the breaker in tests.
type clock struct{ now time.Time }

func (c *clock) advance(d time.Duration) time.Time {
	c.now = c.now.Add(d)
	return c.now
}

func newClock() *clock {
	return &clock{now: time.Unix(1_000_000, 0)}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	ck := newClock()
	b := NewBreaker(Config{Threshold: 3, Backoff: time.Second})
	for i := 0; i < 2; i++ {
		if tripped := b.OnFailure(ck.now); tripped {
			t.Fatalf("failure %d tripped before threshold", i+1)
		}
		if b.State() != Closed {
			t.Fatalf("failure %d: state = %v, want Closed", i+1, b.State())
		}
	}
	if !b.OnFailure(ck.now) {
		t.Fatal("third failure did not trip")
	}
	if b.State() != Open {
		t.Fatalf("state = %v, want Open", b.State())
	}
	if b.Ready(ck.now) {
		t.Fatal("freshly-opened breaker reports Ready")
	}
	if b.Ready(ck.advance(999 * time.Millisecond)) {
		t.Fatal("Ready before backoff expired")
	}
	if !b.Ready(ck.advance(time.Millisecond)) {
		t.Fatal("not Ready after backoff expired")
	}
}

func TestBreakerHalfOpenTrial(t *testing.T) {
	ck := newClock()
	b := NewBreaker(Config{Threshold: 1, Backoff: time.Second, MaxBackoff: 3 * time.Second})
	b.OnFailure(ck.now) // trip
	ck.advance(time.Second)
	b.Begin(ck.now)
	if b.State() != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", b.State())
	}
	if b.Ready(ck.now) {
		t.Fatal("breaker Ready during half-open trial")
	}
	// Failed trial re-opens with doubled backoff.
	if !b.OnFailure(ck.now) {
		t.Fatal("failed trial did not re-open the breaker")
	}
	if b.Ready(ck.advance(1999 * time.Millisecond)) {
		t.Fatal("Ready before doubled backoff expired")
	}
	if !b.Ready(ck.advance(time.Millisecond)) {
		t.Fatal("not Ready after doubled backoff")
	}
	// Another failed trial hits the MaxBackoff cap (4s would exceed 3s).
	b.Begin(ck.now)
	b.OnFailure(ck.now)
	if b.Ready(ck.advance(2999 * time.Millisecond)) {
		t.Fatal("Ready before capped backoff expired")
	}
	if !b.Ready(ck.advance(time.Millisecond)) {
		t.Fatal("not Ready after capped backoff")
	}
	// Successful trial closes and resets the backoff to the base.
	b.Begin(ck.now)
	b.OnSuccess(ck.now)
	if b.State() != Closed {
		t.Fatalf("state after successful trial = %v, want Closed", b.State())
	}
	b.OnFailure(ck.now) // threshold 1: trips again
	if !b.Ready(ck.advance(time.Second)) {
		t.Fatal("backoff was not reset to the base interval after recovery")
	}
}

// TestBreakerAbandonIsNoVerdict: a request the client cut short moves
// neither the streak nor the counters, and an abandoned half-open trial
// re-opens for the same backoff — not doubled, and not stuck HalfOpen.
func TestBreakerAbandonIsNoVerdict(t *testing.T) {
	ck := newClock()
	b := NewBreaker(Config{Threshold: 2, Backoff: time.Second})
	b.OnFailure(ck.now)
	b.OnAbandon(ck.now)
	if s := b.Snapshot(); s.State != Closed || s.ConsecutiveFailures != 1 || s.Failures != 1 || s.Successes != 0 {
		t.Fatalf("abandon on a closed breaker changed it: %+v", s)
	}
	b.OnFailure(ck.now) // trip
	ck.advance(time.Second)
	b.Begin(ck.now)
	b.OnAbandon(ck.now)
	if s := b.Snapshot(); s.State != Open || s.Trips != 1 || s.Failures != 2 {
		t.Fatalf("abandoned trial: %+v, want Open with no new trip or failure", s)
	}
	if b.Ready(ck.advance(999 * time.Millisecond)) {
		t.Fatal("Ready before the re-armed backoff expired")
	}
	if !b.Ready(ck.advance(time.Millisecond)) {
		t.Fatal("abandoned trial doubled the backoff")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	ck := newClock()
	b := NewBreaker(Config{Threshold: 3})
	b.OnFailure(ck.now)
	b.OnFailure(ck.now)
	b.OnSuccess(ck.now)
	if b.OnFailure(ck.now) || b.OnFailure(ck.now) {
		t.Fatal("streak not reset by intervening success")
	}
	if !b.OnFailure(ck.now) {
		t.Fatal("third post-reset failure did not trip")
	}
	s := b.Snapshot()
	if s.Failures != 5 || s.Successes != 1 || s.Trips != 1 || s.State != Open {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestBreakerOpenFailuresOnlyCount(t *testing.T) {
	ck := newClock()
	b := NewBreaker(Config{Threshold: 1, Backoff: time.Second})
	b.OnFailure(ck.now)
	// A probe failing while the breaker is already open must not extend
	// the deadline or count as a second trip.
	b.OnFailure(ck.advance(500 * time.Millisecond))
	if got := b.Snapshot().Trips; got != 1 {
		t.Fatalf("trips = %d, want 1", got)
	}
	if !b.Ready(ck.advance(500 * time.Millisecond)) {
		t.Fatal("open-state failure extended the original deadline")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Threshold != 3 || c.Backoff != 500*time.Millisecond || c.MaxBackoff != 30*time.Second {
		t.Fatalf("defaults = %+v", c)
	}
	keep := Config{Threshold: 7, Backoff: time.Minute, MaxBackoff: time.Hour}
	if got := keep.WithDefaults(); got != keep {
		t.Fatalf("WithDefaults overwrote explicit values: %+v", got)
	}
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	const interval = 100 * time.Millisecond
	a, b := randutil.New(42), randutil.New(42)
	for i := 0; i < 1000; i++ {
		da := jitter(interval, a)
		if da < interval/2 || da >= interval*3/2 {
			t.Fatalf("jitter %v outside [interval/2, 3*interval/2)", da)
		}
		if db := jitter(interval, b); db != da {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, da, db)
		}
	}
	if got := jitter(interval, nil); got != interval {
		t.Fatalf("nil source jitter = %v, want %v", got, interval)
	}
}

func TestProbeStops(t *testing.T) {
	stop := make(chan struct{})
	fired := make(chan struct{}, 64)
	done := make(chan struct{})
	go func() {
		Probe(time.Millisecond, randutil.New(1), stop, func() {
			select {
			case fired <- struct{}{}:
			default:
			}
		})
		close(done)
	}()
	<-fired // at least one probe fired
	close(stop)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Probe did not stop")
	}
	// A non-positive interval must return immediately, not hang.
	Probe(0, nil, nil, nil)
}
