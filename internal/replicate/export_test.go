package replicate

// Steps reports how many replication rounds have run.
func (m *Manager) Steps() int { return m.steps }
