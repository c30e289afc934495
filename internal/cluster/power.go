package cluster

import (
	"time"
)

// Power management implements the PARD-style [3] operation whose
// parameters Table 1 carries ("Power Consumption: 100% when ON, 0% when
// OFF and 5% in Hibernation"): a controller concentrates load on a
// minimal set of active backends and hibernates the rest, waking them as
// load grows. Hibernation preserves memory contents (suspend-to-RAM);
// only routing avoids sleeping backends.

// PowerParams tunes the power controller.
type PowerParams struct {
	// Enabled turns power management on.
	Enabled bool
	// Interval is the controller period. Zero defaults to 1s.
	Interval time.Duration
	// TargetLoad is the per-active-backend outstanding-request level the
	// controller sizes the active set for. Zero defaults to 16.
	TargetLoad int
	// WakeLatency is the hibernate->active transition cost; a waking
	// backend is unavailable for this long. Zero defaults to 300ms.
	WakeLatency time.Duration
	// ActivePower and HibernatePower are the relative power draws
	// (Table 1: 1.0 and 0.05). Zeroes default to those values.
	ActivePower    float64
	HibernatePower float64
}

func (p PowerParams) withDefaults() PowerParams {
	if p.Interval <= 0 {
		p.Interval = time.Second
	}
	if p.TargetLoad <= 0 {
		p.TargetLoad = 16
	}
	if p.WakeLatency <= 0 {
		p.WakeLatency = 300 * time.Millisecond
	}
	if p.ActivePower <= 0 {
		p.ActivePower = 1.0
	}
	if p.HibernatePower <= 0 {
		p.HibernatePower = 0.05
	}
	return p
}

// powerTracker accrues per-backend energy over virtual time.
type powerTracker struct {
	params    PowerParams
	asleep    []bool
	energy    float64 // in active-server-seconds equivalents
	lastAccru time.Duration
	wakes     int64
	sleeps    int64
}

func newPowerTracker(params PowerParams, backends int) *powerTracker {
	return &powerTracker{
		params: params.withDefaults(),
		asleep: make([]bool, backends),
	}
}

// accrue integrates power consumption up to now.
func (p *powerTracker) accrue(now time.Duration) {
	dt := (now - p.lastAccru).Seconds()
	if dt <= 0 {
		return
	}
	for _, a := range p.asleep {
		if a {
			p.energy += p.params.HibernatePower * dt
		} else {
			p.energy += p.params.ActivePower * dt
		}
	}
	p.lastAccru = now
}

// avgPower returns mean cluster power draw over [0, now] as a fraction of
// the all-active draw.
func (p *powerTracker) avgPower(now time.Duration) float64 {
	p.accrue(now)
	secs := now.Seconds()
	if secs <= 0 || len(p.asleep) == 0 {
		return 1
	}
	return p.energy / (secs * float64(len(p.asleep)) * p.params.ActivePower)
}

// asleepCount returns the number of hibernating backends.
func (p *powerTracker) asleepCount() int {
	n := 0
	for _, a := range p.asleep {
		if a {
			n++
		}
	}
	return n
}

// powerTick is the controller: size the active set to the current load.
func (c *Cluster) powerTick() {
	p := c.power
	p.accrue(c.eng.Now())

	// Total outstanding work across awake, live backends.
	totalLoad, alive := 0, 0
	for i := range c.backends {
		if c.down[i] {
			continue
		}
		alive++
		if !p.asleep[i] {
			totalLoad += c.backends[i].cpu.QueueLen() + c.backends[i].disk.QueueLen()
		}
	}
	if alive == 0 {
		return
	}
	want := totalLoad/p.params.TargetLoad + 1 // headroom of one server
	if want < 1 {
		want = 1
	}
	if want > alive {
		want = alive
	}
	active := 0
	for i := range c.backends {
		if !c.down[i] && !p.asleep[i] {
			active++
		}
	}
	switch {
	case want > active:
		// Wake lowest-index sleepers; they come online after WakeLatency
		// (modeled as an initial busy period on their CPU).
		for i := 0; i < len(c.backends) && active < want; i++ {
			if c.down[i] || !p.asleep[i] {
				continue
			}
			p.accrue(c.eng.Now())
			p.asleep[i] = false
			p.wakes++
			c.backends[i].cpu.Schedule(p.params.WakeLatency, nil)
			active++
		}
	case want < active:
		// Hibernate idle highest-index backends, never below one active.
		for i := len(c.backends) - 1; i >= 0 && active > want; i-- {
			if c.down[i] || p.asleep[i] {
				continue
			}
			b := c.backends[i]
			if b.cpu.QueueLen() > 0 || b.disk.QueueLen() > 0 || b.net.QueueLen() > 0 {
				continue // drain first
			}
			p.accrue(c.eng.Now())
			p.asleep[i] = true
			p.sleeps++
			active--
		}
	}
}

// sleeping reports whether a backend is hibernating.
func (c *Cluster) sleeping(i int) bool {
	return c.power != nil && c.power.asleep[i]
}

// unavailable reports whether a backend can accept new work. A
// flapping backend's down half-cycles count — the outage is visible —
// while the other gray modes (slow, errrate) deliberately do not: the
// backend looks available, and only the detector's Degraded hook can
// steer work away.
func (c *Cluster) unavailable(i int) bool {
	return c.down[i] || c.gray.softDown[i] || c.sleeping(i)
}
