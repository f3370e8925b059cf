package cluster

// Accessors only the integration tests use: no entry point reads the
// push backlog, and a running node reports takeovers through Status.

// PendingPushes reports queued-plus-inflight cache pushes; the tests
// drain on it.
func (n *Node) PendingPushes() int64 { return n.pushPending.Load() }

// Takeovers reports how many expired peer leases this node has claimed.
func (n *Node) Takeovers() int64 { return n.takeovers.Load() }
