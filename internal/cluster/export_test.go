package cluster

// TotalServed sums per-backend served counts (equals Metrics.Completed;
// kept separate as a consistency check mirroring the paper's definition).
func (r *Result) TotalServed() int64 {
	var total int64
	for _, s := range r.Servers {
		total += s.Served
	}
	return total
}
