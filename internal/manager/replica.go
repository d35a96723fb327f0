package manager

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/state"
)

// Primary/follower replication. A manager with Options.Replicas streams
// every committed group commit as a seq-numbered frame to its follower
// servers, which apply the actions to their own engines through the very
// same operational semantics — the state being a deterministic function
// of the confirmed action sequence, a follower that has applied the same
// frames IS the primary's state, ready for promotion the moment the
// primary dies.
//
// Consistency is governed by an epoch (a monotone promotion counter, the
// fencing token of the usual primary/backup construction):
//
//   - every frame carries the primary's epoch; a follower rejects frames
//     from an epoch below its own (ErrStaleEpoch), which is how a deposed
//     primary that reappears after a failover learns it is deposed — it
//     demotes itself to follower and starts refusing client writes
//     (ErrNotPrimary);
//   - frames also carry the commit position (Base = engine steps before
//     the frame) and the epoch of the previous commit. A follower applies
//     a frame only when both match its own state exactly; any mismatch —
//     missed frames, a divergent tail committed by a deposed primary —
//     answers ErrReplGap, and the stream heals it by shipping a full
//     state snapshot (the PR 1 serialization) that the follower installs
//     wholesale, discarding whatever it had. By the usual log-matching
//     induction, (steps, commit epoch) equality implies identical
//     histories, so the cheap check is a complete divergence detector.
//
// SyncReplicas chooses the consistency model: with it set, a commit is
// acknowledged to the client only after every follower acked the frame,
// so an acknowledged action can never be lost to a failover (the commit
// is on every replica before the client hears "yes"); a commit whose
// acks fail or time out is reported ErrUncertain — applied locally,
// outcome unknown, exactly like a connection lost between execute and
// confirm. Without it acks are asynchronous: the commit path pays only a
// channel send and acknowledged actions may evaporate if the primary
// dies before the stream drains — the classic async-replication window.
//
// Tickets are epoch-qualified (epoch in the high 32 bits) so a ticket
// granted by a deposed primary can never collide with one granted after
// the failover, and recently confirmed tickets ride along in the frames:
// the follower's dedup window is what makes a confirm retried across a
// failover idempotent.

// Replication errors.
var (
	// ErrNotPrimary: the manager is a follower (or was deposed) and
	// refuses client writes; reads (Try/Final/Subscribe) still work.
	ErrNotPrimary = errors.New("manager: not primary")
	// ErrStaleEpoch: a replication frame or snapshot carried an epoch
	// below the receiver's — the sender is a deposed primary.
	ErrStaleEpoch = errors.New("manager: stale replication epoch")
	// ErrReplGap: a frame did not line up with the follower's commit
	// position; the stream must resync with a full snapshot.
	ErrReplGap = errors.New("manager: replication gap")
	// ErrUncertain: the commit was applied locally but replication did
	// not (fully) acknowledge it under SyncReplicas — the outcome is
	// unknown to the client, like a connection lost before the reply.
	ErrUncertain = errors.New("manager: commit outcome uncertain (replication unacknowledged)")
)

// Role names as reported over the wire.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// roles, internally.
type role int

const (
	rolePrimary role = iota
	roleFollower
)

// ticketEpochShift puts the grant epoch in the high bits of a ticket, so
// tickets from different epochs can never collide (a gateway holding a
// ticket from a deposed primary must not accidentally settle a fresh
// reservation on the promoted follower).
const ticketEpochShift = 32

func makeTicket(epoch, n uint64) Ticket {
	return Ticket(epoch<<ticketEpochShift | n&(1<<ticketEpochShift-1))
}

// ReplFrame is one replicated commit: the actions of one group commit (or
// one ask-path confirm) at a fixed position of the global history.
type ReplFrame struct {
	Epoch     uint64        // sender's epoch
	PrevEpoch uint64        // epoch of the commit preceding Base (log matching)
	Base      uint64        // engine steps before this frame
	Actions   []expr.Action // committed actions, in confirm order
	Tickets   []Ticket      // per-action tickets (0 = batch commit without a ticket)
}

// ReplSnapshot is a full state sync: the frame the stream falls back to
// when the incremental frames do not line up with the follower.
type ReplSnapshot struct {
	Epoch       uint64
	CommitEpoch uint64
	Steps       uint64
	Counter     uint64          // ticket counter (low bits)
	Recent      []Ticket        // confirmed-ticket dedup window
	Engine      json.RawMessage // state.Engine serialization
}

// ReplStatus identifies a replica: its role, epoch and commit position.
type ReplStatus struct {
	Role  string
	Epoch uint64
	Steps uint64
}

// ReplicaTarget is the replication surface a wire server exposes when its
// coordinator supports it (a Manager does; a Gateway does not).
type ReplicaTarget interface {
	ApplyReplicated(ctx context.Context, f ReplFrame) (ReplStatus, error)
	InstallReplSnapshot(ctx context.Context, s ReplSnapshot) (ReplStatus, error)
	Promote(ctx context.Context) (uint64, error)
	ReplStatus(ctx context.Context) (ReplStatus, error)
}

// defaultReplAckTimeout bounds the sync-mode wait for follower acks.
const defaultReplAckTimeout = 5 * time.Second

// confirmedWindowCap bounds the dedup window of recently confirmed
// tickets — the journal that makes a confirm retried across a reconnect
// or failover idempotent instead of "unknown ticket". 256 comfortably
// exceeds any plausible number of in-flight settle retries.
const confirmedWindowCap = 256

// ticketWindow is a bounded set of recently confirmed tickets.
type ticketWindow struct {
	ring []Ticket
	set  map[Ticket]struct{}
	next int
}

func newTicketWindow() *ticketWindow {
	return &ticketWindow{set: make(map[Ticket]struct{}, confirmedWindowCap)}
}

func (w *ticketWindow) add(t Ticket) {
	if t == 0 {
		return
	}
	if _, ok := w.set[t]; ok {
		return
	}
	if len(w.ring) < confirmedWindowCap {
		w.ring = append(w.ring, t)
	} else {
		delete(w.set, w.ring[w.next])
		w.ring[w.next] = t
		w.next = (w.next + 1) % confirmedWindowCap
	}
	w.set[t] = struct{}{}
}

func (w *ticketWindow) has(t Ticket) bool {
	_, ok := w.set[t]
	return ok
}

// list returns the window contents (for replication snapshots).
func (w *ticketWindow) list() []Ticket {
	out := make([]Ticket, len(w.ring))
	copy(out, w.ring)
	return out
}

// --- primary side: the replicator and its per-follower streams ----------

// replItem is one frame queued on a stream, with an optional ack channel
// (sync mode) — or, when sync is non-nil, a control request to force a
// full snapshot resync right now and report the follower's position
// (AttachReplica's catch-up probe).
type replItem struct {
	frame ReplFrame
	res   chan error   // buffered(1); nil in async mode
	sync  chan syncAck // buffered(1); non-nil turns the item into a resync request
}

// syncAck reports a forced resync: the follower's acked status, or why
// it could not be reached.
type syncAck struct {
	st  ReplStatus
	err error
}

// replStreamCap bounds a stream's frame backlog. Overflow in async mode
// drops the frame — the follower detects the gap and the stream heals it
// with a snapshot; overflow in sync mode fails the publish (uncertain).
const replStreamCap = 1024

// replicator fans committed frames out to the follower servers. The
// stream set is dynamic (AttachReplica/DetachReplica); mutations and
// publishes are serialized by the owning manager's mutex.
type replicator struct {
	m          *Manager
	sync       bool
	ackTimeout time.Duration
	streams    []*replStream // guarded by m.mu
	stop       chan struct{}
	wg         sync.WaitGroup
}

// replStream is one follower's ordered frame queue plus the goroutine
// draining it over a self-healing wire connection.
type replStream struct {
	r    *replicator
	addr string
	ch   chan replItem
	quit chan struct{} // closed by removeStream (this stream only)

	// goroutine-local:
	cl       *Client
	syncedTo uint64     // follower steps after the last acked op (skip covered frames)
	synced   bool       // syncedTo is known (an ack has been seen)
	ack      opDeadline // each frame's ack timeout
}

func newReplicator(m *Manager, addrs []string, syncAcks bool, ackTimeout time.Duration) *replicator {
	if ackTimeout <= 0 {
		ackTimeout = defaultReplAckTimeout
	}
	r := &replicator{m: m, sync: syncAcks, ackTimeout: ackTimeout, stop: make(chan struct{})}
	for _, addr := range addrs {
		r.addStreamLocked(addr)
	}
	return r
}

// addStreamLocked starts one follower stream. Callers hold m.mu (or are
// the constructor, before the replicator is visible to anyone).
func (r *replicator) addStreamLocked(addr string) *replStream {
	st := &replStream{r: r, addr: addr, ch: make(chan replItem, replStreamCap), quit: make(chan struct{}),
		ack: opDeadline{timeout: r.ackTimeout}}
	r.streams = append(r.streams, st)
	r.wg.Add(1)
	go st.run()
	return st
}

// stream returns the stream to addr, creating it if absent. Callers hold
// m.mu.
func (r *replicator) stream(addr string) *replStream {
	for _, st := range r.streams {
		if st.addr == addr {
			return st
		}
	}
	return r.addStreamLocked(addr)
}

// removeStream stops and removes the stream to addr (no-op when absent).
// Callers hold m.mu.
func (r *replicator) removeStream(addr string) {
	for i, st := range r.streams {
		if st.addr == addr {
			r.streams = append(r.streams[:i], r.streams[i+1:]...)
			close(st.quit)
			return
		}
	}
}

// close stops the streams; queued frames are dropped (their acks fail).
func (r *replicator) close() {
	close(r.stop)
	r.wg.Wait()
}

// publish enqueues one frame on every stream. Callers hold m.mu; the
// sends are non-blocking, so the commit path never waits on a slow
// follower while holding the manager lock. The returned wait function
// (nil in async mode) blocks until every follower acked and reports
// ErrUncertain when any ack failed or timed out.
func (r *replicator) publish(f ReplFrame) func() error {
	var acks []chan error
	for _, st := range r.streams {
		var res chan error
		if r.sync {
			res = make(chan error, 1)
			acks = append(acks, res)
		}
		select {
		case st.ch <- replItem{frame: f, res: res}:
		default:
			// Backlogged stream. Async: drop — the follower's gap check
			// makes the stream resync with a snapshot once it catches up.
			// Sync: the ack fails immediately.
			if res != nil {
				res <- fmt.Errorf("replication stream to %s backlogged", st.addr)
			}
		}
	}
	if !r.sync {
		return nil
	}
	timeout := r.ackTimeout
	clk := r.m.clk
	return func() error {
		deadline := clk.Now().Add(timeout)
		for _, ch := range acks {
			remaining := deadline.Sub(clk.Now())
			if remaining <= 0 {
				return fmt.Errorf("%w: ack timeout", ErrUncertain)
			}
			select {
			case err := <-ch:
				if err != nil {
					return fmt.Errorf("%w: %v", ErrUncertain, err)
				}
			case <-clk.After(remaining):
				return fmt.Errorf("%w: ack timeout", ErrUncertain)
			}
		}
		return nil
	}
}

// run drains the stream: each frame is shipped to the follower,
// reconnecting on dead connections and healing gaps with snapshots.
// A resync request (it.sync) forces a full snapshot ship in queue order
// and reports the follower's acked position.
func (st *replStream) run() {
	defer st.r.wg.Done()
	defer func() {
		if st.cl != nil {
			st.cl.Close()
		}
	}()
	for {
		select {
		case it := <-st.ch:
			if it.sync != nil {
				ack, err := st.resync()
				it.sync <- syncAck{st: ack, err: err}
				continue
			}
			err := st.ship(it.frame)
			if it.res != nil {
				it.res <- err
			}
		case <-st.r.stop:
			st.fail(ErrClosed)
			return
		case <-st.quit:
			// Detached: fail queued acks so no waiter hangs on a stream
			// that will never ship again.
			st.fail(errors.New("manager: replica detached"))
			return
		}
	}
}

// fail answers every queued item with err (shutdown/detach path).
func (st *replStream) fail(err error) {
	for {
		select {
		case it := <-st.ch:
			if it.res != nil {
				it.res <- err
			}
			if it.sync != nil {
				it.sync <- syncAck{err: err}
			}
		default:
			return
		}
	}
}

// client returns the live follower connection, dialing if necessary.
func (st *replStream) client() (*Client, error) {
	if st.cl != nil {
		return st.cl, nil
	}
	cl, err := DialWith(st.addr, DialOptions{Dialer: st.r.m.dialer})
	if err != nil {
		return nil, err
	}
	st.cl = cl
	st.synced = false // follower progress unknown on a fresh connection
	return cl, nil
}

func (st *replStream) drop() {
	if st.cl != nil {
		st.cl.Close()
		st.cl = nil
	}
}

// ship delivers one frame, trying at most twice (a dead connection is
// re-dialed once) and falling back to a full snapshot on a gap. An
// ErrStaleEpoch answer deposes the local primary.
func (st *replStream) ship(f ReplFrame) error {
	if st.synced && f.Base+uint64(len(f.Actions)) <= st.syncedTo {
		return nil // already covered by an earlier snapshot resync
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		cl, err := st.client()
		if err != nil {
			lastErr = err
			continue
		}
		ackStart := st.r.m.clk.Now()
		ack, err := cl.Replicate(st.ack.arm(), f)
		st.ack.disarm()
		switch {
		case err == nil:
			st.r.m.metrics.replAckNs.ObserveDuration(st.r.m.clk.Since(ackStart))
			st.syncedTo, st.synced = ack.Steps, true
			return nil
		case errors.Is(err, ErrStaleEpoch):
			st.r.m.demoteTo(ack.Epoch)
			return err
		case errors.Is(err, ErrReplGap):
			if _, err := st.resync(); err != nil {
				lastErr = err
				continue
			}
			if st.syncedTo >= f.Base+uint64(len(f.Actions)) {
				return nil // the snapshot covered this frame
			}
			// The snapshot was taken before this frame committed (it ran
			// unlocked against a moving history) — ship the frame on the
			// next attempt.
			lastErr = ErrReplGap
		case connErrLocal(err):
			st.drop()
			lastErr = err
		default:
			lastErr = err
			return lastErr
		}
	}
	st.r.m.metrics.replShipErrs.Inc()
	return lastErr
}

// resync ships a full state snapshot, the catch-all that heals missed
// frames, divergent tails and brand-new followers alike. It returns the
// follower's acked status (AttachReplica's catch-up probe reads Steps).
func (st *replStream) resync() (ReplStatus, error) {
	snap, err := st.r.m.replSnapshot()
	if err != nil {
		return ReplStatus{}, err
	}
	cl, err := st.client()
	if err != nil {
		return ReplStatus{}, err
	}
	ack, err := cl.ReplicateSnapshot(st.ack.arm(), snap)
	st.ack.disarm()
	if err != nil {
		if errors.Is(err, ErrStaleEpoch) {
			st.r.m.demoteTo(ack.Epoch)
		} else if connErrLocal(err) {
			st.drop()
		}
		return ack, err
	}
	st.syncedTo, st.synced = ack.Steps, true
	st.r.m.metrics.replResyncs.Inc()
	return ack, nil
}

// connErrLocal mirrors cluster.connErr for the stream's own retries.
func connErrLocal(err error) bool {
	return errors.Is(err, ErrConnLost) || errors.Is(err, ErrSendFailed)
}

// --- manager hooks -------------------------------------------------------

// replicateLocked publishes the group's applied actions (collected in
// m.applied) as one frame and advances the commit epoch. The frame gets
// its own copy of the actions, because the stream keeps them after the
// group's scratch is reused.
func (m *Manager) replicateLocked(base uint64, t Ticket) func() error {
	prev := m.commitEpoch
	m.commitEpoch = m.epoch
	if m.repl == nil || len(m.applied) == 0 {
		return nil
	}
	f := ReplFrame{Epoch: m.epoch, PrevEpoch: prev, Base: base, Actions: slices.Clone(m.applied)}
	if t != 0 {
		f.Tickets = []Ticket{t}
	}
	clear(m.applied)
	m.applied = m.applied[:0]
	return m.repl.publish(f)
}

// replSnapshot captures the full replication state under the lock.
func (m *Manager) replSnapshot() (ReplSnapshot, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	eng, err := m.en.MarshalState()
	if err != nil {
		return ReplSnapshot{}, err
	}
	return ReplSnapshot{
		Epoch:       m.epoch,
		CommitEpoch: m.commitEpoch,
		Steps:       uint64(m.en.Steps()),
		Counter:     uint64(m.nextTicket),
		Recent:      m.confirmed.list(),
		Engine:      eng,
	}, nil
}

// demoteTo steps a deposed primary down: it adopts the higher epoch,
// becomes a follower and drops any outstanding reservation. Client
// writes fail with ErrNotPrimary from here on; the state it committed
// beyond the new primary's history is discarded by the next snapshot
// resync.
func (m *Manager) demoteTo(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch <= m.epoch && m.role == roleFollower {
		return
	}
	if epoch > m.epoch {
		m.epoch = epoch
	}
	if m.role != roleFollower {
		m.role = roleFollower
		// The role is now what refuses writes; a drain left over from the
		// migration that fenced this node is meaningless on a follower
		// and must not outlive a later re-promotion by surprise.
		m.setDrainingLocked(false)
		m.releaseLocked()
	}
}

// Promote makes a follower the primary of a new, higher epoch and
// returns that epoch. Promoting a primary is a no-op (its epoch is
// returned). The caller — an operator, or the gateway's automatic
// failover — is responsible for promoting the most advanced replica;
// sync-mode replication guarantees every acknowledged commit is on all
// of them.
func (m *Manager) Promote() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	if m.role == rolePrimary {
		return m.epoch, nil
	}
	m.epoch++
	m.role = rolePrimary
	// Promotion is an explicit order to serve: a drain left over from an
	// earlier migration attempt (the node was fenced as the source, then
	// re-promoted later) must not keep refusing asks forever.
	m.setDrainingLocked(false)
	m.cond.Broadcast()
	return m.epoch, nil
}

// Status reports the manager's replication identity.
func (m *Manager) Status() ReplStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.statusLocked()
}

// StateKey returns the canonical key of the current engine state
// (diagnostics; the chaos harness uses it to prove replica convergence).
func (m *Manager) StateKey() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.en.StateKey()
}

// --- follower side -------------------------------------------------------

// ApplyReplicated applies one replication frame. It returns the
// follower's (possibly updated) status; on ErrStaleEpoch the status tells
// the deposed sender which epoch fenced it, on ErrReplGap it tells the
// stream where the follower actually is.
func (m *Manager) ApplyReplicated(f ReplFrame) (ReplStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.statusLocked(), ErrClosed
	}
	if st, err := m.adoptEpochLocked(f.Epoch); err != nil {
		return st, err
	}
	steps := uint64(m.en.Steps())
	if f.Base != steps || f.PrevEpoch != m.commitEpoch {
		return m.statusLocked(), fmt.Errorf("%w: frame base %d/epoch %d vs local steps %d/epoch %d",
			ErrReplGap, f.Base, f.PrevEpoch, steps, m.commitEpoch)
	}
	for i, a := range f.Actions {
		next := m.en.Advance(a)
		if !next.Permissible() {
			// Divergence despite matching positions — a malformed frame.
			// The partial application is healed by the snapshot resync the
			// gap answer provokes.
			return m.statusLocked(), fmt.Errorf("%w: replicated action %s rejected", ErrReplGap, a)
		}
		if err := m.stageLocked(a, next); err != nil {
			return m.statusLocked(), err
		}
		if i < len(f.Tickets) && f.Tickets[i] != 0 {
			m.confirmed.add(f.Tickets[i])
			if n := uint64(f.Tickets[i]) & (1<<ticketEpochShift - 1); n > uint64(m.nextTicket) {
				m.nextTicket = Ticket(n)
			}
		}
		m.stats.Transits++
	}
	if m.store != nil && len(f.Actions) > 0 {
		if err := m.store.Commit(m.syncWrites); err != nil {
			return m.statusLocked(), err
		}
	}
	m.commitEpoch = f.Epoch
	m.stats.ReplFrames++
	m.metrics.replFrames.Inc()
	if n := len(f.Actions); n > 0 {
		m.notifyLocked()
		m.sinceSnap += n - 1
		m.maybeSnapshotLocked()
	}
	return m.statusLocked(), nil
}

// InstallReplSnapshot replaces the follower's state wholesale with the
// primary's serialized engine — the resync that heals gaps and divergent
// tails. The replaced history (including any commits a deposed primary
// took beyond the new timeline) is discarded.
func (m *Manager) InstallReplSnapshot(s ReplSnapshot) (ReplStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.statusLocked(), ErrClosed
	}
	if st, err := m.adoptEpochLocked(s.Epoch); err != nil {
		return st, err
	}
	en, err := state.RestoreEngine(m.en.Expr(), s.Engine)
	if err != nil {
		return m.statusLocked(), fmt.Errorf("manager: install replication snapshot: %w", err)
	}
	m.en = en
	m.commitEpoch = s.CommitEpoch
	if Ticket(s.Counter) > m.nextTicket {
		m.nextTicket = Ticket(s.Counter)
	}
	for _, t := range s.Recent {
		m.confirmed.add(t)
	}
	m.stats.ReplResyncs++
	m.metrics.replResyncs.Inc()
	// Persist the new timeline: the old log entries belong to a history
	// this replica no longer has, so they must not be replayed on top of
	// the installed state after a restart. A failed checkpoint fails the
	// install — acking a resync whose disk state would resurrect the
	// replaced timeline on restart would let the primary (and, under
	// SyncReplicas, the client) believe a durability that is not there.
	// The log is truncated explicitly (not just compacted through the
	// checkpoint): the replaced timeline's sequence numbers may exceed
	// the installed state's, so seq-based compaction could leave entries
	// that a restart would replay on top of the new state. The delta
	// chain restarts too — its encoder describes the replaced timeline.
	if m.ckptOn {
		m.resetDeltaChainLocked()
		if err := m.snapshotLocked(); err != nil {
			return m.statusLocked(), err
		}
		if err := m.store.TruncateLog(); err != nil {
			return m.statusLocked(), err
		}
	} else if m.store != nil {
		if err := m.store.TruncateLog(); err != nil {
			return m.statusLocked(), err
		}
	}
	m.notifyLocked()
	return m.statusLocked(), nil
}

// adoptEpochLocked runs the fencing protocol common to frames and
// snapshots: higher epochs are adopted (deposing a local primary), lower
// epochs are rejected, and a primary never accepts same-epoch frames
// (two primaries in one epoch cannot happen under the promotion rule; if
// operator error produces it, refusing is the safe answer).
func (m *Manager) adoptEpochLocked(epoch uint64) (ReplStatus, error) {
	if epoch < m.epoch || (epoch == m.epoch && m.role == rolePrimary) {
		return m.statusLocked(), fmt.Errorf("%w: frame epoch %d, local epoch %d", ErrStaleEpoch, epoch, m.epoch)
	}
	if epoch > m.epoch {
		m.epoch = epoch
	}
	if m.role != roleFollower {
		m.role = roleFollower
		// See demoteTo: a fenced migration source must not stay draining.
		m.setDrainingLocked(false)
		m.releaseLocked()
	}
	return ReplStatus{}, nil
}

func (m *Manager) statusLocked() ReplStatus {
	role := RolePrimary
	if m.role == roleFollower {
		role = RoleFollower
	}
	return ReplStatus{Role: role, Epoch: m.epoch, Steps: uint64(m.en.Steps())}
}
