package httpfront

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"prord/internal/fleet"
	"prord/internal/health"
)

// This file is the distributor's fleet face: partitioned session
// ownership over internal/fleet's consistent-hash ring plus the gossip
// loop that reconciles non-partitionable shared state (locality deltas,
// popularity ranks, health verdicts) between replicas. Forwarding is
// one in-process handler call — the user-space stand-in for the
// distributor-to-distributor RPC a kernel deployment would make — and
// is bounded to one hop by a mark in the forwarded request's context,
// so a racing ring change can never bounce a request around the fleet
// and no client can claim to have been forwarded already.

// ReplicaHeader reports which fleet replica's core made the routing
// decision for a response (only set in fleet mode): the load
// generator's session-affinity assertions read it.
const ReplicaHeader = "X-Prord-Replica"

// forwardedKey marks the context of a request already forwarded once by
// its ingress replica; the receiver serves it locally whatever the ring
// says.
type forwardedKey struct{}

// FleetConfig wires one Distributor into a multi-replica fleet. Ring
// and Exchanger are shared by every replica in the fleet; ReplicaID
// must be a ring member.
type FleetConfig struct {
	// ReplicaID is this distributor's ring member id.
	ReplicaID int
	// Ring is the fleet's shared session-ownership ring.
	Ring *fleet.Ring
	// Exchanger is the fleet's shared digest board.
	Exchanger *fleet.Exchanger
	// GossipInterval is the publish+merge period. Default 250ms.
	GossipInterval time.Duration
	// Bounds are the per-field staleness bounds applied when merging
	// peer digests; zero fields take the fleet package defaults.
	Bounds fleet.Bounds
}

// fleetPeers is the registered fleet, indexed by replica id; entries
// may be nil (unknown peer — requests it owns are served locally).
type fleetPeers struct {
	handlers []http.Handler
}

// fleetState is the adapter-side fleet machinery hung off Distributor.
type fleetState struct {
	cfg    FleetConfig
	buf    *fleet.Buffer
	merger *fleet.Merger
	seq    atomic.Uint64
	peers  atomic.Pointer[fleetPeers]
	stop   chan struct{}

	// healthMu guards the per-peer health verdicts; the union mask the
	// core's Degraded hook reads is rebuilt under it and published
	// through degMask, so the hook itself stays lock-free.
	healthMu sync.Mutex
	peerDeg  map[int][]bool
	degMask  atomic.Pointer[[]bool]
}

// newFleetState builds the adapter-side fleet machinery for a
// defaulted FleetConfig.
func newFleetState(cfg FleetConfig) *fleetState {
	return &fleetState{
		cfg:     cfg,
		buf:     fleet.NewBuffer(0),
		merger:  fleet.NewMerger(cfg.ReplicaID, cfg.Bounds),
		peerDeg: make(map[int][]bool),
	}
}

// SetPeers registers the fleet's request handlers, indexed by replica
// id (the entry at this replica's own id is ignored). Handlers are
// typically the other replicas' Distributors, but anything that serves
// the forwarded request works — tests substitute recorders. Safe to
// call concurrently with traffic; until it is called, foreign-owned
// requests are served locally (correct, just colder).
func (d *Distributor) SetPeers(handlers []http.Handler) {
	if d.fleet == nil {
		return
	}
	cp := make([]http.Handler, len(handlers))
	copy(cp, handlers)
	d.fleet.peers.Store(&fleetPeers{handlers: cp})
}

// peerFor returns the registered handler for a replica id, nil when
// none is known.
func (d *Distributor) peerFor(replica int) http.Handler {
	ps := d.fleet.peers.Load()
	if ps == nil || replica < 0 || replica >= len(ps.handlers) {
		return nil
	}
	return ps.handlers[replica]
}

// forwardIfForeign applies the ownership-handoff path: when the session
// key hashes to another replica and that replica's handler is
// registered, the request is handed over (marked so it cannot hop
// twice) and true is returned. The core's forward accounting also
// releases any stale local binding a ring change left behind.
func (d *Distributor) forwardIfForeign(w http.ResponseWriter, r *http.Request) bool {
	if d.fleet == nil || r.Context().Value(forwardedKey{}) != nil {
		return false
	}
	owner, owned := d.core.Owner(r.RemoteAddr)
	if owned {
		return false
	}
	peer := d.peerFor(owner)
	if peer == nil {
		// Unknown peer: serve locally rather than fail. The session
		// stays consistent — the owner would make the same decisions
		// once registered — it just loses locality until then.
		return false
	}
	d.core.NoteFleetForward(r.RemoteAddr)
	peer.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), forwardedKey{}, true)))
	return true
}

// noteFleetServe buffers one served demand request for the next gossip
// digest: the backend now plausibly holds the file (locality delta) and
// the path earned a popularity observation (rank delta).
func (d *Distributor) noteFleetServe(server int, path string) {
	if d.fleet == nil {
		return
	}
	d.fleet.buf.NoteLocality(server, path)
	d.fleet.buf.NoteRank(path)
}

// fleetDegraded reports whether any peer's gossiped health verdict
// (degraded or breaker-open) covers the backend. Lock-free.
func (d *Distributor) fleetDegraded(server int) bool {
	if d.fleet == nil {
		return false
	}
	mask := d.fleet.degMask.Load()
	if mask == nil || server < 0 || server >= len(*mask) {
		return false
	}
	return (*mask)[server]
}

// gossipLoop publishes this replica's digest and merges peers' on a
// fixed cadence until stopped.
func (d *Distributor) gossipLoop(stop <-chan struct{}, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d.gossipOnce(time.Now())
		}
	}
}

// gossipOnce runs one anti-entropy round: drain the local delta buffer
// into a digest, publish it, merge every peer digest within the
// staleness bounds, and fold what was applied into the core.
func (d *Distributor) gossipOnce(now time.Time) {
	fs := d.fleet
	loc, ranks := fs.buf.Drain()

	n := len(d.cfg.Backends)
	open := make([]bool, n)
	d.hmu.Lock()
	for i, b := range d.breakers {
		open[i] = b.State() != health.Closed
	}
	d.hmu.Unlock()
	deg := make([]bool, n)
	if d.detector != nil {
		for i := range deg {
			deg[i] = d.detector.Degraded(i)
		}
	}
	fs.cfg.Exchanger.Publish(fleet.Digest{
		Replica:     fs.cfg.ReplicaID,
		Seq:         fs.seq.Add(1),
		Locality:    loc,
		LocalityAt:  now,
		Ranks:       ranks,
		RanksAt:     now,
		Degraded:    deg,
		BreakerOpen: open,
		HealthAt:    now,
	})

	st := fs.merger.Merge(now, fs.cfg.Exchanger.Digests(), fleet.Apply{
		Locality: func(ld fleet.LocalityDelta) {
			d.core.NoteRemoteLocality(ld.Server, ld.Path)
		},
		Ranks: func(path string) {
			d.core.ObserveRank(path)
		},
		Health: d.applyFleetHealth,
	})
	if st.Ranks > 0 {
		// Peer popularity folds into the decision snapshot alongside any
		// buffered local observations.
		d.core.RefreshMining()
	}
}

// applyFleetHealth folds one peer's health verdicts and republishes the
// union mask the Degraded hook reads. A peer that stops reporting a
// backend as bad clears its vote on its next digest.
func (d *Distributor) applyFleetHealth(replica int, degraded, breakerOpen []bool) {
	fs := d.fleet
	n := len(d.cfg.Backends)
	vote := make([]bool, n)
	for i := 0; i < n; i++ {
		if i < len(degraded) && degraded[i] {
			vote[i] = true
		}
		if i < len(breakerOpen) && breakerOpen[i] {
			vote[i] = true
		}
	}
	fs.healthMu.Lock()
	fs.peerDeg[replica] = vote
	mask := make([]bool, n)
	for _, v := range fs.peerDeg {
		for i := 0; i < n && i < len(v); i++ {
			if v[i] {
				mask[i] = true
			}
		}
	}
	fs.healthMu.Unlock()
	fs.degMask.Store(&mask)
}

// FleetState is the fleet block of the cluster stats endpoint.
type FleetState struct {
	// Replica is this distributor's ring member id.
	Replica int `json:"replica"`
	// Replicas is the current ring membership size.
	Replicas int `json:"replicas"`
	// RingEpoch counts membership publishes (1 for a static fleet).
	RingEpoch uint64 `json:"ring_epoch"`
	// OwnedSessions counts tracked sessions the ring assigns here.
	OwnedSessions int `json:"owned_sessions"`
	// Forwards counts requests handed to their owning replica.
	Forwards int64 `json:"forwards"`
	// OwnershipRebinds counts stale local bindings released by foreign
	// touches after ring membership changes.
	OwnershipRebinds int64 `json:"ownership_rebinds"`
	// PendingDeltas counts buffered locality/rank deltas awaiting the
	// next gossip round.
	PendingDeltas int `json:"pending_deltas"`
	// GossipStaleness is the worst applied-peer digest age per field
	// ("locality", "ranks", "health"); a field is absent until a peer
	// digest has been applied for it.
	GossipStaleness map[string]string `json:"gossip_staleness,omitempty"`
}

// Fleet returns the fleet snapshot, or nil when fleet mode is off.
func (d *Distributor) Fleet() *FleetState {
	if d.fleet == nil {
		return nil
	}
	fs := d.fleet
	cs := d.core.Stats()
	locPend, rankPend := fs.buf.Pending()
	st := &FleetState{
		Replica:          fs.cfg.ReplicaID,
		Replicas:         fs.cfg.Ring.Size(),
		RingEpoch:        fs.cfg.Ring.Epoch(),
		OwnedSessions:    d.core.OwnedSessions(),
		Forwards:         cs.FleetForwards,
		OwnershipRebinds: cs.OwnershipRebinds,
		PendingDeltas:    locPend + rankPend,
	}
	if ages := fs.merger.Staleness(time.Now()); len(ages) > 0 {
		st.GossipStaleness = make(map[string]string, len(ages))
		for f, age := range ages {
			st.GossipStaleness[f] = age.String()
		}
	}
	return st
}
