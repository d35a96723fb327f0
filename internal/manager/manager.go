// Package manager implements the central scheduler of Sec 7 of the
// paper: the *interaction manager* that monitors and controls the
// execution of actions against an interaction expression, together with
// the two protocols of Fig 10:
//
//   - the coordination protocol: ask → reply → execute → confirm, with
//     the manager holding a critical region between a positive reply and
//     the confirmation (step 2 to step 5). Abort and reservation
//     timeouts implement the recovery strategies the paper sketches for
//     clients that die inside the critical region;
//   - the subscription protocol: subscribe → inform → update →
//     unsubscribe, where the manager pushes an inform message exactly
//     when a subscribed action's status flips between permissible and
//     non-permissible, letting worklist handlers keep worklists current
//     without busy waiting.
//
// Persistence: every confirmed action is appended to an action log
// (JSON lines); recovery replays the log through the operational
// semantics, restoring the exact state (the manager's state is a pure
// function of the confirmed action sequence).
package manager

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/storage"
)

// Common errors.
var (
	ErrDenied        = errors.New("manager: action not permitted")
	ErrUnknownTicket = errors.New("manager: unknown or expired ticket")
	ErrClosed        = errors.New("manager: closed")
)

// Ticket identifies an outstanding reservation (a granted ask that has
// not been confirmed or aborted yet).
type Ticket uint64

// Inform is one subscription notification: the permissibility status of
// a subscribed action changed (or is being reported initially).
type Inform struct {
	Action      expr.Action
	Permissible bool
}

// Subscription receives inform messages for one subscribed action.
type Subscription struct {
	C      <-chan Inform
	id     uint64
	action expr.Action
}

// Options configure a manager.
type Options struct {
	// LogPath, if non-empty, enables the persistent action log. If the
	// file already contains actions they are replayed on startup
	// (recovery).
	LogPath string
	// ReservationTimeout bounds the critical region between reply and
	// confirm; expired reservations are aborted automatically (the
	// paper's remedy for worklist handlers that die mid-protocol).
	// Zero means no timeout.
	ReservationTimeout time.Duration
	// SnapshotPath, if non-empty, enables checkpoint recovery: the engine
	// state, ticket counter and outstanding reservation are serialized
	// there and the action log is truncated, so a restart replays only the
	// log tail instead of the full history.
	SnapshotPath string
	// SnapshotEvery is the checkpoint interval in confirms (K): a snapshot
	// is written after every K-th confirmed action. Zero disables
	// automatic checkpoints (Snapshot can still force one).
	SnapshotEvery int
	// StorageDir, if non-empty, selects the segmented storage engine
	// (internal/storage): the action log is split into fixed-size sealed
	// segments compacted in the background, and checkpoints form delta
	// chains (a periodic full base plus pieces carrying only state nodes
	// unseen since the previous checkpoint). Takes precedence over
	// LogPath/SnapshotPath; SnapshotEvery still sets the checkpoint
	// cadence.
	StorageDir string
	// SegmentBytes is the sealed-segment size threshold of the segmented
	// engine. <= 0 selects storage.DefaultSegmentBytes.
	SegmentBytes int64
	// FullCheckpointEvery is the delta-chain length bound: every N-th
	// checkpoint is a full base, the N-1 in between are deltas. 0 or 1
	// makes every checkpoint full (the only mode the monolithic layout
	// supports; forced there). Longer chains shrink checkpoint bytes but
	// lengthen the restore chain a restart reads.
	FullCheckpointEvery int
	// Storage injects a storage backend directly, overriding every
	// path-based option above. The deterministic simulator injects
	// storage.NewMemory() here so chaos schedules exercise the real
	// storage code paths without a filesystem.
	Storage storage.Backend
	// BatchMaxSize enables group commit for the atomic request path when
	// > 1: up to BatchMaxSize concurrent Requests are coalesced into one
	// batch that passes the critical-region admission check once and is
	// made durable with one log flush (and at most one fsync). 0 or 1
	// keeps the one-at-a-time path. Recovery is unaffected: the log holds
	// the same entries in confirm order either way.
	BatchMaxSize int
	// BatchMaxDelay bounds how long an open batch waits for stragglers
	// after its first request before committing — the latency the manager
	// trades for throughput. Zero defaults to 200µs when batching is on.
	BatchMaxDelay time.Duration
	// SyncWrites fsyncs the action log at every durability point: once
	// per confirm on the one-at-a-time path, once per batch under group
	// commit. Off, the log is flushed to the OS but survives only process
	// crashes, not machine crashes (the seed behavior).
	SyncWrites bool
	// Replicas lists the wire addresses of follower servers. Every
	// committed batch is streamed to them as a seq-numbered replication
	// frame; a follower that falls behind (or diverged under a deposed
	// primary) is healed with a full state snapshot. Empty disables
	// replication (the seed behavior).
	Replicas []string
	// SyncReplicas makes commits wait for every follower's ack before
	// acknowledging the client, so an acknowledged action survives any
	// single failover; a commit whose acks fail is reported ErrUncertain.
	// Off, acks are asynchronous — cheaper, with the classic loss window.
	SyncReplicas bool
	// ReplAckTimeout bounds the sync-mode ack wait and each replication
	// round trip. Zero defaults to 5s.
	ReplAckTimeout time.Duration
	// Follower starts the manager as a read-only follower: client writes
	// fail with ErrNotPrimary until Promote is called (directly or via
	// the wire "promote" op), while Try/Final/Subscribe serve reads and
	// replication frames keep the state current.
	Follower bool
	// Metrics, if non-nil, makes the manager report counters, rate
	// meters and latency histograms into the given registry (package
	// obs). Nil leaves every instrumentation point a no-op.
	Metrics *obs.Registry
	// Clock injects the time source for reservation timeouts, batch
	// collection deadlines and replication ack waits. Nil means the wall
	// clock (clock.Real). The deterministic simulator (internal/sim)
	// injects a logical clock here so no commit- or failover-path wait
	// depends on real time.
	Clock clock.Clock
	// Dialer injects the transport the replication streams dial their
	// followers with. Nil means TCP (net.Dial); the simulator injects
	// its in-memory network.
	Dialer func(addr string) (net.Conn, error)
}

// Manager is a goroutine-safe interaction manager for one closed
// interaction expression.
type Manager struct {
	mu     sync.Mutex
	cond   *sync.Cond
	en     *state.Engine
	store  storage.Backend // nil: memory-only, no durability
	closed bool

	reserved    bool // a granted ask is outstanding (critical region)
	draining    bool // migration drain: new asks refused, in-flight settles
	ticket      Ticket
	reservedAct expr.Action
	reservedNxt state.Successor // τ̂ computed at the grant; zero after a checkpoint restore
	reservedAt  time.Time
	nextTicket  Ticket        // ticket counter (low bits; the epoch fills the high bits)
	confirmed   *ticketWindow // recently confirmed tickets (idempotent retry dedup)
	role        role          // primary (accepts writes) or follower (replica)
	epoch       uint64        // promotion epoch (replication fencing token)
	commitEpoch uint64        // epoch of the most recent commit (log matching)
	timeout     time.Duration
	clk         clock.Clock
	dialer      func(addr string) (net.Conn, error) // nil: TCP
	stats       Stats
	nextSubID   uint64
	subs        map[uint64]*subGroup // subscription id → its action's group
	subsByAct   map[string]*subGroup // action key → shared group

	ckptOn    bool // the backend stores checkpoints
	snapEvery int
	sinceSnap int
	snapErr   error                  // first failed background checkpoint since last Snapshot
	fullEvery int                    // delta-chain length bound (1 = every checkpoint full)
	sinceFull int                    // delta pieces since the chain's full base
	deltaM    *state.DeltaMarshaller // non-nil iff a delta chain is live

	syncWrites bool
	batch      *commitQueue // non-nil iff group commit is enabled
	repl       *replicator  // non-nil iff replication is enabled

	reg        *obs.Registry  // nil: metrics disabled
	metrics    managerMetrics // cached handles; nil members no-op
	syncRepl   bool           // replication settings, kept for replicators
	ackTimeout time.Duration
}

// subGroup fans one action's status out to every subscriber on it.
// Grouping by action makes a transition cost one status evaluation per
// distinct subscribed action, not one per subscriber — the difference
// between O(actions) and O(subscribers) on the commit path.
type subGroup struct {
	action  expr.Action
	last    bool
	members map[uint64]chan Inform
}

// Stats counts protocol traffic for the experiments of Sec 7 (E13/E15).
type Stats struct {
	Asks        int // ask messages received
	Tries       int // pure status probes
	Grants      int // positive replies
	Denies      int // negative replies
	Confirms    int
	Aborts      int // explicit aborts plus reservation timeouts
	Informs     int // subscription notifications sent
	Transits    int // committed state transitions
	Snapshots   int // checkpoints written
	ReplFrames  int // replication frames applied (follower side)
	ReplResyncs int // full snapshot resyncs installed (follower side)
}

// New creates a manager for e, recovering from the action log if one is
// configured and present.
func New(e *expr.Expr, opts Options) (*Manager, error) {
	m := &Manager{
		timeout:    opts.ReservationTimeout,
		clk:        clock.Or(opts.Clock),
		dialer:     opts.Dialer,
		subs:       make(map[uint64]*subGroup),
		subsByAct:  make(map[string]*subGroup),
		snapEvery:  opts.SnapshotEvery,
		fullEvery:  opts.FullCheckpointEvery,
		syncWrites: opts.SyncWrites,
		confirmed:  newTicketWindow(),
		syncRepl:   opts.SyncReplicas,
		ackTimeout: opts.ReplAckTimeout,
	}
	if opts.Follower {
		m.role = roleFollower
	}
	m.cond = sync.NewCond(&m.mu)
	store, ckptOn, err := openStore(opts)
	if err != nil {
		return nil, err
	}
	m.store, m.ckptOn = store, ckptOn
	if m.fullEvery < 1 || (m.store != nil && !m.store.SupportsDelta()) {
		m.fullEvery = 1
	}
	// Recovery, step 1: restore the checkpoint chain, if any — the
	// newest full checkpoint plus every delta after it, loaded oldest
	// first through one DeltaRestorer.
	if m.store != nil && m.ckptOn {
		if err := m.restoreFromChain(e); err != nil {
			m.store.Close()
			return nil, err
		}
	}
	if m.en == nil {
		en, err := state.NewEngine(e)
		if err != nil {
			if m.store != nil {
				m.store.Close()
			}
			return nil, err
		}
		m.en = en
	}
	// Recovery, step 2: replay the log tail. Entries the checkpoint
	// already covers (seq ≤ steps at checkpoint time) are skipped, which
	// keeps a crash between checkpoint write and log compaction harmless.
	if m.store != nil {
		base := uint64(m.en.Steps())
		replayed := 0
		if err := m.store.Replay(func(le storage.Entry) error {
			if le.Seq <= base {
				return nil
			}
			a := expr.ConcreteAct(le.Name, le.Args...)
			if err := m.en.Step(a); err != nil {
				return fmt.Errorf("manager: recovery: logged action %s no longer permitted: %w", a, err)
			}
			replayed++
			return nil
		}); err != nil {
			m.store.Close()
			return nil, err
		}
		// A confirm logged after the checkpoint proves the checkpointed
		// reservation was settled: confirms only happen with the critical
		// region held, and it is freed on settlement. Keeping the phantom
		// reservation would block every Ask (no timeout) or let a retried
		// Confirm apply its action twice.
		if replayed > 0 && m.reserved {
			m.releaseLocked()
		}
	}
	if opts.BatchMaxSize > 1 {
		m.batch = newCommitQueue(opts.BatchMaxSize, opts.BatchMaxDelay)
		go m.committer()
	}
	// The replicator exists even on a follower: the streams idle until a
	// promotion makes this node publish commits of its own.
	if len(opts.Replicas) > 0 {
		m.repl = newReplicator(m, opts.Replicas, opts.SyncReplicas, opts.ReplAckTimeout)
	}
	// Metrics attach last so the gauge callbacks see the final batch
	// queue wiring.
	m.initMetrics(opts.Metrics)
	return m, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(e *expr.Expr, opts Options) *Manager {
	m, err := New(e, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Expr returns the managed expression.
func (m *Manager) Expr() *expr.Expr { return m.en.Expr() }

// releaseLocked frees the critical region, drops the successor the
// reservation held and wakes the asks waiting for it.
func (m *Manager) releaseLocked() {
	m.reserved = false
	m.reservedNxt = state.Successor{}
	m.cond.Broadcast()
}

// expireLocked aborts a reservation whose timeout elapsed.
func (m *Manager) expireLocked() {
	if m.reserved && m.timeout > 0 && m.clk.Since(m.reservedAt) >= m.timeout {
		m.releaseLocked()
		m.stats.Aborts++
		m.metrics.aborts.Inc()
	}
}

// Ask implements step 1+2 of the coordination protocol: it waits for the
// critical region to be free, then replies whether the action is
// currently permitted. A positive reply enters the critical region and
// returns a ticket that must be settled with Confirm or Abort. The
// context bounds the wait.
func (m *Manager) Ask(ctx context.Context, a expr.Action) (Ticket, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Asks++
	m.metrics.asks.Inc()
	m.metrics.askMeter.Mark(1)
	for {
		if m.closed {
			return 0, ErrClosed
		}
		if m.role != rolePrimary {
			return 0, ErrNotPrimary
		}
		if m.draining {
			m.metrics.drainRefusals.Inc()
			return 0, ErrDraining
		}
		m.expireLocked()
		if !m.reserved {
			break
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		// Wake up periodically to observe context cancellation and
		// reservation expiry even without other activity.
		waitCond(m.cond, ctx, m.clk, m.timeout)
	}
	next := m.en.Advance(a)
	if !next.Permissible() {
		m.stats.Denies++
		m.metrics.denies.Inc()
		return 0, &deniedError{a}
	}
	m.reserved = true
	m.nextTicket++
	m.ticket = makeTicket(m.epoch, uint64(m.nextTicket))
	m.reservedAct, m.reservedNxt = a, next
	m.reservedAt = m.clk.Now()
	m.stats.Grants++
	m.metrics.grants.Inc()
	return m.ticket, nil
}

// waitCond waits on c, and additionally arranges wakeups on context
// cancellation and (optionally) after the reservation timeout, on the
// manager's injected clock.
func waitCond(c *sync.Cond, ctx context.Context, clk clock.Clock, timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
			return
		case <-timerC(clk, timeout):
		}
		c.Broadcast()
	}()
	c.Wait()
	close(done)
}

func timerC(clk clock.Clock, d time.Duration) <-chan time.Time {
	if d <= 0 {
		return nil
	}
	return clk.After(d)
}

// Confirm implements steps 4+5: the client executed the action; the
// manager performs the state transition, leaves the critical region and
// notifies subscribers whose action status flipped. Under SyncReplicas
// the reply additionally waits for every follower's ack.
func (m *Manager) Confirm(t Ticket) error {
	wait, err := m.confirmSettle(t)
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

func (m *Manager) confirmSettle(t Ticket) (func() error, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	m.expireLocked()
	if !m.reserved || m.ticket != t || m.role != rolePrimary {
		// Idempotent retry: a client whose connection died after the
		// confirm was applied but before the reply arrived may retry; the
		// commit must not be reported as unknown (or applied twice). The
		// dedup window is replicated, so the retry may even land on the
		// follower promoted after the confirming primary died.
		if t != 0 && m.confirmed.has(t) {
			return nil, nil
		}
		// A non-primary answers ErrNotPrimary, not ErrUnknownTicket: a
		// deposed primary dropped its reservations on demotion, and only
		// this answer makes the settling client fail over to the replica
		// that fenced it (where the ticket is either in the window or
		// genuinely resumable).
		if m.role != rolePrimary {
			return nil, ErrNotPrimary
		}
		return nil, ErrUnknownTicket
	}
	a, next := m.reservedAct, m.reservedNxt
	if m.en.Check(next) != nil {
		// Restored from a checkpoint, the reservation holds no successor of
		// the current state: compute it, or free the region if it has none.
		if next = m.en.Advance(a); !next.Permissible() {
			m.releaseLocked()
			return nil, &deniedError{a}
		}
	}
	base, err := m.commitLocked(a, next)
	if err != nil {
		return nil, err // a failed log write: the reservation stays for a retry or Abort
	}
	m.stats.Confirms++
	m.stats.Transits++
	m.metrics.confirms.Inc()
	m.releaseLocked() // before the checkpoint below, which records an open reservation
	m.confirmed.add(t)
	wait := m.replicateOneLocked(base, a, t)
	m.notifyLocked()
	m.maybeSnapshotLocked()
	return wait, nil
}

// Abort implements the negative outcome of step 3: the client could not
// execute the action; the critical region is released without a state
// transition.
func (m *Manager) Abort(t Ticket) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if !m.reserved || m.ticket != t {
		return ErrUnknownTicket
	}
	m.releaseLocked()
	m.stats.Aborts++
	m.metrics.aborts.Inc()
	return nil
}

// Request is the atomic ask+execute+confirm used by integration points
// that execute reliably under the manager's protection (the adapted
// workflow engine of Fig 11): the action is checked and committed in one
// critical section. With BatchMaxSize > 1 concurrent requests are group
// committed: coalesced into one critical-section pass with a single log
// flush/fsync for the whole batch.
func (m *Manager) Request(ctx context.Context, a expr.Action) error {
	if m.batch != nil {
		return m.enqueue(ctx, a)
	}
	wait, err := m.requestSettle(ctx, a)
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

func (m *Manager) requestSettle(ctx context.Context, a expr.Action) (func() error, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Asks++
	m.metrics.asks.Inc()
	m.metrics.askMeter.Mark(1)
	for {
		if m.closed {
			return nil, ErrClosed
		}
		if m.role != rolePrimary {
			return nil, ErrNotPrimary
		}
		if m.draining {
			m.metrics.drainRefusals.Inc()
			return nil, ErrDraining
		}
		m.expireLocked()
		if !m.reserved {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		waitCond(m.cond, ctx, m.clk, m.timeout)
	}
	next := m.en.Advance(a)
	if !next.Permissible() {
		m.stats.Denies++
		m.metrics.denies.Inc()
		return nil, &deniedError{a}
	}
	base, err := m.commitLocked(a, next)
	if err != nil {
		return nil, err
	}
	m.stats.Grants++
	m.stats.Confirms++
	m.stats.Transits++
	m.metrics.grants.Inc()
	m.metrics.confirms.Inc()
	wait := m.replicateOneLocked(base, a, 0)
	m.notifyLocked()
	m.maybeSnapshotLocked()
	return wait, nil
}

// commitLocked makes one admitted action durable and installs the
// successor its admission computed; it returns the step count the action
// was applied on. The log write goes through the per-action durability
// point (flush, plus fsync under SyncWrites); the group-commit path uses
// Buffer/Commit instead, paying these once per batch.
func (m *Manager) commitLocked(a expr.Action, next state.Successor) (uint64, error) {
	base := uint64(m.en.Steps())
	if err := m.en.Check(next); err != nil {
		return base, err // refused before the log sees it
	}
	if m.store != nil {
		e := storage.Entry{Name: a.Name, Args: a.Values(), Seq: base + 1}
		if err := m.store.Append(e); err != nil {
			return base, err
		}
		if m.syncWrites {
			start := m.clk.Now()
			err := m.store.Sync()
			m.metrics.flushNs.ObserveDuration(m.clk.Since(start))
			if err != nil {
				return base, err
			}
		}
	}
	return base, m.en.Commit(next)
}

// Try reports whether the action is currently permissible, without
// reserving anything (a pure status probe).
func (m *Manager) Try(a expr.Action) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.stats.Tries++
	return m.en.Try(a)
}

// Final reports whether the confirmed actions form a complete word.
func (m *Manager) Final() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.en.Final()
}

// StateSize exposes the engine's state size (complexity experiments).
func (m *Manager) StateSize() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.en.StateSize()
}

// Steps returns the number of committed transitions.
func (m *Manager) Steps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.en.Steps()
}

// Stats returns a snapshot of the protocol counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// CacheStats reports the counters of the engine's state cache. Every
// manager has one, so ok is always true. A snapshot resync replaces the
// engine and restarts the counters.
func (m *Manager) CacheStats() (state.CacheStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.en.CacheStats(), true
}

// Subscribe registers interest in one action (step 1 of the subscription
// protocol). The current status is delivered immediately; afterwards an
// inform message is sent exactly when the status flips. The channel is
// buffered; a subscriber that falls behind loses intermediate flips but
// always eventually observes the latest status (the channel then holds
// the most recent pending inform).
func (m *Manager) Subscribe(a expr.Action) *Subscription {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextSubID++
	key := a.Key()
	g := m.subsByAct[key]
	if g == nil {
		g = &subGroup{action: a, last: m.en.Try(a), members: make(map[uint64]chan Inform)}
		m.subsByAct[key] = g
	}
	ch := make(chan Inform, 16)
	g.members[m.nextSubID] = ch
	m.subs[m.nextSubID] = g
	sub := &Subscription{C: ch, id: m.nextSubID, action: a}
	// The joiner's initial status comes from the group's cache: notify
	// runs after every transition, so last is always current.
	SendLatest(ch, Inform{Action: g.action, Permissible: g.last})
	m.stats.Informs++
	return sub
}

// Unsubscribe removes the subscription (step 4) and closes its channel.
func (m *Manager) Unsubscribe(s *Subscription) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok := m.subs[s.id]; ok {
		delete(m.subs, s.id)
		if ch, ok := g.members[s.id]; ok {
			delete(g.members, s.id)
			close(ch)
		}
		if len(g.members) == 0 {
			delete(m.subsByAct, g.action.Key())
		}
	}
}

// SendLatest delivers i on ch without blocking. When ch is full it drops
// the oldest pending inform to make room: a slow subscriber loses
// intermediate flips but always observes the latest status. Every
// subscription channel, local or forwarded, is fed through it.
func SendLatest(ch chan Inform, i Inform) {
	select {
	case ch <- i:
	default:
		select {
		case <-ch:
		default:
		}
		select {
		case ch <- i:
		default:
		}
	}
}

// notifyLocked recomputes subscribed action statuses after a transition
// and sends informs for flips (step 2/3 of the subscription protocol).
// Each distinct action is evaluated once, however many subscribers it
// fans out to.
func (m *Manager) notifyLocked() {
	for _, g := range m.subsByAct {
		now := m.en.Try(g.action)
		if now == g.last {
			continue
		}
		g.last = now
		inf := Inform{Action: g.action, Permissible: now}
		for _, ch := range g.members {
			SendLatest(ch, inf)
			m.stats.Informs++
		}
	}
}

// Close shuts the manager down, closes all subscription channels and the
// action log. With group commit enabled, queued requests still unserved
// fail with ErrClosed; the in-flight batch settles first.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for id, g := range m.subs {
		delete(m.subs, id)
		if ch, ok := g.members[id]; ok {
			delete(g.members, id)
			close(ch)
		}
		if len(g.members) == 0 {
			delete(m.subsByAct, g.action.Key())
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	if m.batch != nil {
		// The committer needs the lock (and, when parked on the critical
		// region, the broadcast above) to observe the shutdown, so it is
		// stopped between the unlock and the relock.
		close(m.batch.stop)
		<-m.batch.stopped
	}
	if m.repl != nil {
		// Streams settle or fail their queued frames; un-shipped frames are
		// lost like any async-replication backlog (followers resync from the
		// persistent state on the next contact).
		m.repl.close()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var firstErr error
	// A parting checkpoint makes the next restart replay nothing.
	if m.ckptOn && m.sinceSnap > 0 {
		firstErr = m.snapshotLocked()
	}
	if firstErr == nil {
		firstErr = m.snapErr
	}
	if m.store != nil {
		if err := m.store.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
