package manager

import (
	"context"
	"errors"
)

// Elastic membership: the operations that let a running cluster grow and
// shrink under live traffic. A shard is no longer pinned to the server
// set it was born on — a primary can attach a fresh follower at runtime
// (snapshot resync over the existing replication stream), drain itself
// so in-flight tickets settle while new asks are refused with a
// retryable sentinel, and hand its role to the caught-up follower via
// the ordinary epoch-bumping promotion. cluster.Rebalancer composes
// these primitives into a zero-loss live migration:
//
//	attach target → resync → catch up → drain source → final sync →
//	promote target (epoch fences the source) → retire source
//
// Everything here reuses the PR 4 replication machinery: the attach is
// just a new follower stream, catch-up is the stream's own gap-healing
// snapshot resync, and the fencing is the same epoch rule that already
// governs failover.

// ErrDraining: the manager is draining (a migration is moving its shard
// away): new asks and requests are refused, in-flight tickets may still
// settle. The refusal is transient and the request was never admitted,
// so clients retry — the shard clients of internal/cluster do so
// automatically until the route table repoints them.
var ErrDraining = errors.New("manager: draining")

// TopologyInfo describes a manager's place in its replica set: its own
// identity plus the follower streams it feeds.
type TopologyInfo struct {
	Role     string
	Epoch    uint64
	Steps    uint64
	Draining bool
	Replicas []string // follower addresses this node streams commits to
}

// Drain puts the manager into drain mode and waits until it is quiescent:
// new Ask/Request calls fail with ErrDraining immediately, while the
// outstanding reservation (if any) and every already-queued group-commit
// request settle normally. When Drain returns nil, no further state
// transition can originate from this node's clients — the precondition
// for the migration's final snapshot sync. The context bounds the wait;
// on expiry the manager STAYS draining (the caller decides whether to
// Resume or retry).
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.setDrainingLocked(true)
	// Wake Ask/Request waiters parked on the critical region so they
	// observe the drain and fail fast instead of waiting out a region
	// they can never enter.
	m.cond.Broadcast()
	for {
		m.expireLocked()
		pending := m.batch != nil && m.batch.pending.Load() > 0
		if !m.reserved && !pending {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		waitCond(m.cond, ctx, m.clk, m.timeout)
	}
}

// setDrainingLocked sets the drain flag and the writer queue's mirror of
// it and of m.closed, which a joining writer reads without m.mu.
func (m *Manager) setDrainingLocked(on bool) {
	m.draining = on
	if q := m.batch; q != nil {
		q.mu.Lock()
		q.refuse = m.closed || on
		q.mu.Unlock()
	}
}

// Resume leaves drain mode: the manager accepts new asks again (a
// migration that failed mid-way calls this so the shard is not wedged).
func (m *Manager) Resume() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.setDrainingLocked(false)
	m.cond.Broadcast()
	return nil
}

// Draining reports whether the manager is in drain mode.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Topology reports the manager's replication identity together with the
// follower streams it currently feeds and its drain state.
func (m *Manager) Topology() TopologyInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.statusLocked()
	ti := TopologyInfo{Role: st.Role, Epoch: st.Epoch, Steps: st.Steps, Draining: m.draining}
	if m.repl != nil {
		for _, s := range m.repl.streams {
			ti.Replicas = append(ti.Replicas, s.addr)
		}
	}
	return ti
}

// AttachReplica attaches the follower server at addr to this primary's
// replication fan-out (idempotent) and immediately ships it a full state
// snapshot, returning the follower's acked status — Steps tells the
// caller how far the follower is. Subsequent commits stream to it like
// to any configured replica, under the manager's SyncReplicas setting.
// A manager started without Replicas grows its replicator lazily here.
func (m *Manager) AttachReplica(ctx context.Context, addr string) (ReplStatus, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ReplStatus{}, ErrClosed
	}
	if m.role != rolePrimary {
		m.mu.Unlock()
		return ReplStatus{}, ErrNotPrimary
	}
	if m.repl == nil {
		m.repl = newReplicator(m, nil, m.syncRepl, m.ackTimeout)
	}
	st := m.repl.stream(addr)
	stop := m.repl.stop
	m.mu.Unlock()

	// The sync request rides the stream's own queue, so it is ordered
	// with the frames already published to this follower.
	ack := make(chan syncAck, 1)
	select {
	case st.ch <- replItem{sync: ack}:
	case <-ctx.Done():
		return ReplStatus{}, ctx.Err()
	case <-stop:
		return ReplStatus{}, ErrClosed
	}
	select {
	case a := <-ack:
		return a.st, a.err
	case <-ctx.Done():
		return ReplStatus{}, ctx.Err()
	}
}

// DetachReplica removes the follower stream to addr (the inverse of
// AttachReplica; a retired server stops receiving frames). Unknown
// addresses are a no-op. Under strict SyncReplicas, detaching an
// unreachable follower is also how an operator stops commits from
// reporting ErrUncertain.
func (m *Manager) DetachReplica(addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.repl != nil {
		m.repl.removeStream(addr)
	}
	return nil
}
