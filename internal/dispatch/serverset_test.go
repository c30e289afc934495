package dispatch_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"prord/internal/dispatch"
	"prord/internal/policy"
)

// TestServerSet walks the word's edge bits: the lowest two and the
// highest two, where a shift or sign mistake would show.
func TestServerSet(t *testing.T) {
	for _, bit := range []int{0, 1, 62, 63} {
		var s dispatch.ServerSet
		if !s.Empty() || s.Has(bit) {
			t.Fatalf("bit %d: zero set is not empty", bit)
		}
		s = s.Add(bit)
		if s.Empty() || !s.Has(bit) {
			t.Fatalf("bit %d: Add did not make it a member", bit)
		}
		for _, other := range []int{0, 1, 62, 63} {
			if other != bit && s.Has(other) {
				t.Fatalf("bit %d: Add also set bit %d", bit, other)
			}
		}
		if got := s.AppendTo(nil); !reflect.DeepEqual(got, []int{bit}) {
			t.Fatalf("bit %d: AppendTo = %v", bit, got)
		}
		if s = s.Remove(bit); !s.Empty() || s.Has(bit) {
			t.Fatalf("bit %d: Remove left %#x", bit, uint64(s))
		}
	}

	var all, mask dispatch.ServerSet
	for _, bit := range []int{63, 1, 62, 0} {
		all = all.Add(bit)
	}
	mask = mask.Add(0).Add(62).Add(63)
	prefix := []int{7}
	got := (all & mask).AppendTo(prefix)
	if want := []int{7, 0, 62, 63}; !reflect.DeepEqual(got, want) {
		t.Errorf("filtered AppendTo = %v, want %v (ascending, after the caller's prefix)", got, want)
	}
	if got := all.Remove(1).Remove(62).AppendTo(nil); !reflect.DeepEqual(got, []int{0, 63}) {
		t.Errorf("AppendTo after removals = %v, want [0 63]", got)
	}
}

// TestNewRejectsMoreThan64Backends pins the one bound the one-word
// server set imposes.
func TestNewRejectsMoreThan64Backends(t *testing.T) {
	c, err := dispatch.New(dispatch.Config{
		Backends:  64,
		Policy:    policy.NewPRORD(policy.Thresholds{}),
		Available: func(s int, _ time.Time) bool { return s == 63 },
	})
	if err != nil {
		t.Fatalf("Backends: 64 rejected: %v", err)
	}
	// The top bit routes and books like any other.
	now := time.Unix(0, 0)
	if out := c.Route("10.6.4.63:1", "/a.html", 1024, now); out.Server != 63 {
		t.Fatalf("with only backend 63 up, Route picked %d (ok %t)", out.Server, out.OK)
	}
	if c.InFlightFiles() != 1 || c.Loads()[63] != 1 {
		t.Fatalf("booking on backend 63 not recorded: loads %v", c.Loads())
	}
	c.Done("10.6.4.63:1", 63, "/a.html", false, false)
	if c.InFlightFiles() != 0 || c.Loads()[63] != 0 {
		t.Fatalf("release on backend 63 not recorded: loads %v", c.Loads())
	}
	_, err = dispatch.New(dispatch.Config{Backends: 65, Policy: policy.NewPRORD(policy.Thresholds{})})
	if err == nil || !strings.Contains(err.Error(), "64") {
		t.Fatalf("Backends: 65 gave error %v, want one naming the limit 64", err)
	}
}
