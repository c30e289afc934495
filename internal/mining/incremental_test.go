package mining

import (
	"fmt"
	"reflect"
	"testing"
)

// foldObs builds a deterministic observation stream mixing
// window-opening ("" prev) and transition observations.
func foldObs(n int) []NavObs {
	obs := make([]NavObs, 0, n)
	for i := 0; i < n; i++ {
		page := fmt.Sprintf("/p%d.html", i%7)
		if i%5 == 0 {
			obs = append(obs, NavObs{Page: page})
			continue
		}
		prev := fmt.Sprintf("/p%d.html", (i+3)%7)
		obs = append(obs, NavObs{Prev: prev, Page: page})
	}
	return obs
}

// applyInPlace replays the observations through the exact
// ObserveSequence calls Tracker.Observe would make online.
func applyInPlace(m *Model, obs []NavObs) {
	for _, o := range obs {
		if o.Prev == "" {
			m.ObserveSequence([]string{o.Page})
		} else {
			m.ObserveSequence([]string{o.Prev, o.Page})
		}
	}
}

func modelState(m *Model) (ctx map[string]ctxStats, accessed map[string]int, observations int) {
	ctx = make(map[string]ctxStats, len(m.ctx))
	for k, v := range m.ctx {
		ctx[k] = ctxStats{total: v.total, next: v.next}
	}
	return ctx, m.accessed, m.observations
}

func TestModelFoldMatchesInPlace(t *testing.T) {
	obs := foldObs(200)

	inPlace := NewModel(2)
	applyInPlace(inPlace, obs[:40]) // shared warm base
	base := NewModel(2)
	applyInPlace(base, obs[:40])

	applyInPlace(inPlace, obs[40:])
	folded := base.Fold(obs[40:])

	wc, wa, wo := modelState(inPlace)
	gc, ga, go_ := modelState(folded)
	if go_ != wo {
		t.Errorf("observations = %d, want %d", go_, wo)
	}
	if !reflect.DeepEqual(ga, wa) {
		t.Errorf("accessed diverged:\n got %v\nwant %v", ga, wa)
	}
	if !reflect.DeepEqual(gc, wc) {
		t.Errorf("ctx diverged:\n got %v\nwant %v", gc, wc)
	}
}

func TestModelFoldLeavesBaseUntouched(t *testing.T) {
	obs := foldObs(120)
	base := NewModel(2)
	applyInPlace(base, obs[:60])
	wantCtx, wantAcc, wantObs := modelState(base)
	// Deep-freeze the pre-fold inner maps so aliasing shows up.
	frozen := make(map[string]map[string]int, len(base.ctx))
	for k, v := range base.ctx {
		inner := make(map[string]int, len(v.next))
		for p, n := range v.next {
			inner[p] = n
		}
		frozen[k] = inner
	}

	folded := base.Fold(obs[60:])
	if folded == base {
		t.Fatal("Fold returned the receiver for non-empty observations")
	}

	gc, ga, go_ := modelState(base)
	if go_ != wantObs || !reflect.DeepEqual(ga, wantAcc) || !reflect.DeepEqual(gc, wantCtx) {
		t.Error("Fold mutated the base model")
	}
	for k, inner := range frozen {
		if !reflect.DeepEqual(base.ctx[k].next, inner) {
			t.Errorf("Fold mutated shared ctxStats for %q", k)
		}
	}
}

func TestModelFoldEmpty(t *testing.T) {
	base := NewModel(2)
	applyInPlace(base, foldObs(30))
	if base.Fold(nil) != base {
		t.Error("Fold(nil) should return the receiver unchanged")
	}
}
