package dispatch

import (
	"fmt"

	"prord/internal/mining"
	"prord/internal/policy"
)

// decisionSnapshot is the immutable bundle of read-mostly policy
// inputs one routing decision consults. Readers obtain it with a
// single atomic pointer load and never see it change: writers copy the
// current snapshot, update the copy, and publish it (RCU). Everything
// reachable from a published snapshot is immutable — the mining folds
// are copy-on-write (mining/incremental.go), the bundle index is
// materialized once at New, and the policies carry their own internal
// striped locking rather than mutating snapshot state.
type decisionSnapshot struct {
	// epoch counts publishes, starting at 1 for the snapshot New
	// builds. Strictly increasing; SnapshotEpoch exposes it.
	epoch uint64
	// pol and fallback are the distribution policies. The pointers are
	// fixed for the core's lifetime today, but they live here so a
	// future policy hot-swap is one more copy-update-publish.
	pol      policy.Policy
	fallback policy.Policy
	// bundles is the mined embedded-object index (nil without a Miner).
	// Its lazy materialization is forced at New; afterwards Parent and
	// Objects are read-only.
	bundles *mining.Bundles
	// nav is the navigation predictor the batched mining mode predicts
	// against. In immediate mode (MiningRefreshEvery 0) the tracker
	// learns into the same object in place under trackMu and this
	// reference is not consulted on the prediction path.
	nav mining.OnlinePredictor
}

// snapshot returns the current decision snapshot. Lock-free; the
// result is immutable and safe to use for the rest of the decision.
func (c *Core) snapshot() *decisionSnapshot { return c.snap.Load() }

// SnapshotEpoch returns the published snapshot's epoch: 1 after New,
// +1 per RefreshMining publish. Lock-free.
func (c *Core) SnapshotEpoch() uint64 { return c.snap.Load().epoch }

// MiningPending returns the navigation observations buffered for the
// next RefreshMining fold.
func (c *Core) MiningPending() int { return c.updater.Pending() }

// RefreshMining drains the incremental updater and publishes a fresh
// decision snapshot with the buffered navigation observations folded
// into a copy-on-write navigation model. In-progress decisions keep the
// snapshot they loaded; no reader blocks. No-op when nothing is
// buffered. It reports whether a new snapshot was published.
//
// In batched mode (MiningRefreshEvery > 0) the core calls this itself
// every MiningRefreshEvery navigation observations; a caller may call
// it directly to fold a partial batch.
func (c *Core) RefreshMining() bool {
	if c.updater.Pending() == 0 {
		return false
	}
	c.wrMu.Lock()
	defer c.wrMu.Unlock()
	// Take under wrMu: a concurrent refresher's fold is fully published
	// before this one drains, so folds always chain off the latest copy.
	nav := c.updater.Take()
	if len(nav) == 0 {
		return false
	}
	cur := c.snap.Load()
	ns := *cur
	ns.epoch++
	if f, ok := ns.nav.(mining.Folder); ok {
		ns.nav = f.FoldObs(nav)
	}
	c.snap.Store(&ns)
	return true
}

// buildSnapshot assembles the epoch-1 snapshot New publishes.
func buildSnapshot(cfg Config) (*decisionSnapshot, error) {
	s := &decisionSnapshot{
		epoch:    1,
		pol:      cfg.Policy,
		fallback: cfg.Fallback,
	}
	if cfg.Miner != nil {
		s.bundles = cfg.Miner.Bundles
		s.nav = cfg.Miner.Nav
		if s.nav == nil {
			s.nav = cfg.Miner.Model
		}
	}
	if cfg.MiningRefreshEvery < 0 {
		return nil, fmt.Errorf("dispatch: MiningRefreshEvery must be >= 0, got %d", cfg.MiningRefreshEvery)
	}
	if cfg.MiningRefreshEvery > 0 && cfg.Features.NavPrefetch {
		if _, ok := s.nav.(mining.Folder); !ok {
			return nil, fmt.Errorf("dispatch: MiningRefreshEvery needs a navigation predictor supporting copy-on-write folds (the n-order model); %T does not", s.nav)
		}
	}
	return s, nil
}
