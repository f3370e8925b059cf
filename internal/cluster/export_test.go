package cluster

// Accessors only the integration tests use: a running node reports
// takeovers through Status.

// Takeovers reports how many expired peer leases this node has claimed.
func (n *Node) Takeovers() int64 { return n.takeovers.Load() }
