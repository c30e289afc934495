package dispatch

// NewWithDegraded builds a Core from cfg whose degraded mask is the
// scripted degraded instead of a gray detector's verdict, so a test
// can flag and clear backends directly. degraded must be lock-free and
// non-blocking, like the detector's mask.
func NewWithDegraded(cfg Config, degraded func(server int) bool) (*Core, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.degradedMask = degraded
	return c, nil
}
