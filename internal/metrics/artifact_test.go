package metrics

import "testing"

func TestRoundAndHelpers(t *testing.T) {
	if Round(1.23456, 2) != 1.23 {
		t.Fatalf("Round = %v", Round(1.23456, 2))
	}
	if Round(-0.0001, 2) != 0 {
		t.Fatalf("Round should fold -0 into 0, got %v", Round(-0.0001, 2))
	}
	if Skew([]int64{3, 1}) != 1.5 {
		t.Fatalf("Skew = %v", Skew([]int64{3, 1}))
	}
	if Skew(nil) != 0 || Skew([]int64{0, 0}) != 0 {
		t.Fatal("Skew of empty/zero counts should be 0")
	}
}
