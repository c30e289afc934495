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

func TestUpdaterTakeDrains(t *testing.T) {
	u := NewUpdater()
	u.ObserveNav("", "/a")
	if n := u.ObserveNav("/a", "/b"); n != 2 {
		t.Errorf("ObserveNav count = %d, want 2", n)
	}
	if p := u.Pending(); p != 2 {
		t.Errorf("Pending = %d, want 2", p)
	}
	nav := u.Take()
	wantNav := []NavObs{{Page: "/a"}, {Prev: "/a", Page: "/b"}}
	if !reflect.DeepEqual(nav, wantNav) {
		t.Errorf("nav = %v, want %v", nav, wantNav)
	}
	if u.Pending() != 0 {
		t.Error("Take did not drain")
	}
	if nav = u.Take(); nav != nil {
		t.Error("second Take should return a nil slice")
	}
}

func TestTrackerAdvanceMatchesObserveWindow(t *testing.T) {
	obsModel := NewModel(2)
	applyInPlace(obsModel, foldObs(50))
	advModel := NewModel(2)
	applyInPlace(advModel, foldObs(50))

	online := NewTracker(obsModel, true)
	batched := NewTracker(advModel, false)

	pages := []string{"/x", "/y", "/x", "/z", "/y", "/x"}
	for i, p := range pages {
		online.Observe(1, p)
		prev, window := batched.Advance(1, p)
		// Folding the advanced observation reproduces the online model.
		folded := advModel.Fold([]NavObs{{Prev: prev, Page: p}})
		advModel = folded
		batched.model = folded

		oc, oa, oo := modelState(obsModel)
		fc, fa, fo := modelState(folded)
		if oo != fo || !reflect.DeepEqual(oa, fa) || !reflect.DeepEqual(oc, fc) {
			t.Fatalf("step %d: Advance+Fold model diverged from Observe", i)
		}
		if !reflect.DeepEqual(window, online.Recent(1)) {
			t.Fatalf("step %d: window = %v, want %v", i, window, online.Recent(1))
		}
	}
}
