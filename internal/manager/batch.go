package manager

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/state"
	"repro/internal/storage"
)

// Group commit. Request and RequestMany commit through
// groupCommitLocked: the group passes the critical-region admission
// once, its actions are validated and applied in order through the
// operational semantics and staged in the log's write buffer, and one
// store.Commit (at most one fsync), one replication frame and one
// subscription sweep settle the whole group. The log holds the entries
// in the confirm order a one-at-a-time execution would have produced,
// so recovery replays it unchanged (the crash-torture tests exercise
// exactly this claim).
//
// Without batching (BatchMaxSize ≤ 1) every call is a group of its own,
// committed inline by its caller. A Confirm commits the one action its
// Ask admitted under m.mu and shares the group's publishLocked; it logs
// before it moves the engine, so a failed write leaves its reservation
// for a retry. It never queues, so it cannot wait behind a leader parked
// on the reservation it settles.
//
// With batching, Request and RequestMany callers are writers in a queue
// with a lock of its own, the write path of LevelDB's DBImpl::Write.
// The writer at the head leads: it takes up to BatchMaxSize queued
// actions as one group and commits it under m.mu. Writers join while
// the leader holds m.mu through its flush, so the next group forms
// behind it with no timer and no wait for stragglers. The leader then
// hands the lead to the next head before it waits for its group's
// sync-replication acks, so the next group commits behind that wait,
// and last wakes the writers its group settled. A lone writer leads its
// own group inline, with no hop to another goroutine. A waiting writer
// whose context ends leaves the queue with what no leader took.

// member is one action of a group and its outcome.
type member struct {
	a   expr.Action
	err error
	w   *writer // the queued writer it came from; nil outside the queue
	i   int     // its index in w
}

// callerCtx is the context of mb's caller: its writer's, or inline, the
// one context of a group committed outside the queue.
func (mb *member) callerCtx(inline context.Context) context.Context {
	if mb.w != nil {
		return mb.w.ctx
	}
	return inline
}

// writer is one caller's run of actions in the writer queue. A writer
// larger than the room left in a group is split, in order, across
// consecutive groups.
type writer struct {
	ctx   context.Context
	acts  []expr.Action
	errs  []error   // one per action, filled as groups settle
	taken int       // actions a leader has taken into a group (under q.mu)
	done  int       // actions settled (under q.mu)
	leads bool      // handed the lead (under q.mu)
	cond  sync.Cond // on q.mu: signalled when the writer leads or is settled
	// A Request's one action and its error live in the writer itself,
	// so that a Request allocates the writer and nothing else.
	act1 [1]expr.Action
	err1 [1]error
}

// writerQueue is the group-commit queue. Its lock is its own, never
// held while taking m.mu, so writers join while a leader holds m.mu.
type writerQueue struct {
	mu      sync.Mutex
	writers []*writer // joined and not yet taken whole, in arrival order
	leading bool      // some writer leads
	refuse  bool      // m.closed || m.draining, mirrored for a join without m.mu
	maxSize int
	// free holds group slices for reuse. A leader waiting for its acks
	// keeps its group, so the next leader takes another.
	free [][]member
	// pending counts the actions joined and not yet committed or
	// refused. It rises under q.mu and falls under m.mu, where Drain and
	// Close wait for it to reach zero.
	pending atomic.Int64
}

// join queues w and returns once every action of w is settled. A dead
// context fails w at once, and a context that ends while w waits fails
// the actions no leader has taken yet. A closed or draining manager
// turns w away to commitInline, whose admission refuses it as an
// unbatched call is refused.
func (m *Manager) join(w *writer) {
	if err := w.ctx.Err(); err != nil {
		for i := range w.errs {
			w.errs[i] = err
		}
		return
	}
	q := m.batch
	w.cond.L = &q.mu
	q.mu.Lock()
	if q.refuse {
		q.mu.Unlock()
		m.commitInline(w.ctx, w.acts, w.errs)
		return
	}
	q.pending.Add(int64(len(w.acts)))
	q.writers = append(q.writers, w)
	if q.leading {
		var stop func() bool
		if w.ctx.Done() != nil {
			stop = context.AfterFunc(w.ctx, func() {
				q.mu.Lock()
				w.cond.Signal()
				q.mu.Unlock()
			})
		}
		withdrawn := 0
		for !w.leads && w.done < len(w.acts) {
			if w.taken < len(w.acts) && w.ctx.Err() != nil {
				withdrawn = q.withdraw(w)
				continue // a leader settles what it took of w
			}
			w.cond.Wait()
		}
		if stop != nil {
			stop()
		}
		if !w.leads {
			q.mu.Unlock()
			if withdrawn > 0 {
				m.mu.Lock()
				if q.pending.Add(-int64(withdrawn)) == 0 {
					m.cond.Broadcast() // Drain and Close wait for the queue to empty
				}
				m.mu.Unlock()
			}
			return
		}
	}
	q.leading = true
	m.lead(w)
}

// withdraw fails the actions of w that no leader has taken with the
// context's error, takes w off the queue and returns how many it failed.
func (q *writerQueue) withdraw(w *writer) int {
	n := len(w.acts) - w.taken
	for i := w.taken; i < len(w.acts); i++ {
		w.errs[i] = w.ctx.Err()
	}
	w.taken, w.done = len(w.acts), w.done+n
	i := slices.Index(q.writers, w)
	q.writers = slices.Delete(q.writers, i, i+1)
	return n
}

// lead commits groups from the head of the queue, w the first writer,
// until every action of w is in a group, hands the lead on, and returns
// once every action of w is settled. It is called with q.mu held and
// returns with it released.
func (m *Manager) lead(w *writer) {
	q := m.batch
	for w.taken < len(w.acts) {
		g := q.take()
		q.mu.Unlock()

		m.mu.Lock()
		wait := m.groupCommitLocked(g, nil)
		if q.pending.Add(-int64(len(g))) == 0 {
			m.cond.Broadcast() // Drain and Close wait for the queue to empty
		}
		m.mu.Unlock()

		q.mu.Lock()
		if w.taken == len(w.acts) {
			q.handOff()
		}
		if wait != nil {
			q.mu.Unlock()
			settle(g, wait)
			q.mu.Lock()
		}
		q.record(g, w)
	}
	// A leader that went before may still wait for the acks of a group
	// that holds the first actions of w.
	for w.done < len(w.acts) {
		w.cond.Wait()
	}
	q.mu.Unlock()
}

// take pops the next group off the head of the queue: up to maxSize
// actions in arrival order, the last writer split if it does not fit.
func (q *writerQueue) take() []member {
	var g []member
	if n := len(q.free); n > 0 {
		g, q.free = q.free[n-1], q.free[:n-1]
	}
	popped := 0
	for _, h := range q.writers {
		n := min(q.maxSize-len(g), len(h.acts)-h.taken)
		for i := h.taken; i < h.taken+n; i++ {
			g = append(g, member{a: h.acts[i], w: h, i: i})
		}
		if h.taken += n; h.taken < len(h.acts) {
			break // the group is full
		}
		popped++
		if len(g) == q.maxSize {
			break
		}
	}
	n := copy(q.writers, q.writers[popped:])
	clear(q.writers[n:])
	q.writers = q.writers[:n]
	return g
}

// handOff gives the lead to the writer at the head of the queue.
func (q *writerQueue) handOff() {
	if len(q.writers) == 0 {
		q.leading = false
		return
	}
	h := q.writers[0]
	h.leads = true
	h.cond.Signal()
}

// record hands the group's outcomes to its writers, wakes each writer it
// completes other than w, the caller's own, and keeps the group's slice
// for the next group.
func (q *writerQueue) record(g []member, w *writer) {
	for i := range g {
		h := g[i].w
		h.errs[g[i].i] = g[i].err
		if h.done++; h.done == len(h.acts) && h != w {
			h.cond.Signal()
		}
	}
	clear(g)
	q.free = append(q.free, g[:0])
}

// settle waits for the group's sync-replication acks; if they fail,
// every member the group committed is uncertain, like a connection lost
// between execute and confirm.
func settle(g []member, wait func() error) {
	if err := wait(); err != nil {
		for i := range g {
			if g[i].err == nil {
				g[i].err = err
			}
		}
	}
}

// groupCommitLocked is the commit path of Request and RequestMany. It
// commits the group g with one admission wait, one store.Commit and one
// publishLocked, filling each member's err; the caller releases m.mu and
// then settles the returned sync-replication wait (nil when there is
// none). ctx is the context of a group committed inline, outside the
// queue; the members of a queued group carry their writers' contexts.
func (m *Manager) groupCommitLocked(g []member, ctx context.Context) func() error {
	// Open, primary and with the region free, a group enters at once.
	if (m.closed || m.role != rolePrimary || m.draining || m.reserved) && !m.admitLocked(g, ctx) {
		return nil
	}
	base := uint64(m.en.Steps())
	applied := 0
	for i := range g {
		mb := &g[i]
		if mb.err != nil {
			continue // its context ended during the admission wait
		}
		m.stats.Asks++
		m.metrics.asks.Inc()
		if mb.w != nil {
			// A queued member whose caller gave up while it waited is not
			// applied. A call that waited for the region had its context
			// checked by the wait.
			if mb.err = mb.w.ctx.Err(); mb.err != nil {
				continue
			}
		}
		next := m.en.Advance(mb.a)
		if !next.Permissible() {
			m.stats.Denies++
			m.metrics.denies.Inc()
			mb.err = &deniedError{mb.a}
			continue
		}
		if mb.err = m.stageLocked(mb.a, next); mb.err != nil {
			continue
		}
		if m.repl != nil {
			m.applied = append(m.applied, mb.a)
		}
		applied++
	}
	m.metrics.askMeter.Mark(uint64(len(g)))
	m.stats.Grants += applied
	m.metrics.grants.Add(uint64(applied))
	if applied == 0 {
		return nil
	}
	if m.store != nil {
		if err := m.flushLocked(); err != nil {
			// The flush failed after the engine advanced: the in-memory state
			// may be ahead of the durable log, the exposure any group commit
			// has at its single durability point. The outcome of every
			// applied member is unknown to its client, like a connection lost
			// between execute and confirm. The followers and subscribers
			// still follow the engine, so a failover keeps the state the
			// primary serves.
			for i := range g {
				if g[i].err == nil {
					g[i].err = err
				}
			}
		}
	}
	return m.publishLocked(base, applied, 0)
}

// publishLocked ends a commit of applied actions on top of step base
// (when replicating, the actions are staged in m.applied): one
// replication frame, carrying t when the commit confirms that ticket,
// one subscription sweep and at most one checkpoint.
func (m *Manager) publishLocked(base uint64, applied int, t Ticket) func() error {
	m.stats.Confirms += applied
	m.stats.Transits += applied
	m.metrics.confirms.Add(uint64(applied))
	m.metrics.batchSize.Observe(uint64(applied))
	wait := m.replicateLocked(base, t)
	// Subscribers observe the group's net effect (they are documented to
	// only ever need the latest status), and the snapshot interval counts
	// confirms, not groups.
	m.notifyLocked()
	m.sinceSnap += applied - 1 // maybeSnapshotLocked adds the last one
	m.maybeSnapshotLocked()
	return wait
}

// admitLocked waits until the group may enter the critical region: the
// manager is open, this node is the primary, it is not draining (unless
// the group's writers passed the queue's drain check when they joined)
// and no ask/confirm reservation holds the region. A refusal fails every
// member; a member whose context ends during the wait fails alone. ctx
// is the context of a group committed inline. It reports whether any
// member is left to commit.
func (m *Manager) admitLocked(g []member, ctx context.Context) bool {
	for {
		var refused error
		switch {
		case m.closed:
			refused = ErrClosed
		case m.role != rolePrimary:
			// Deposed (or started as a follower). Checked before the drain:
			// ErrNotPrimary makes the client fail over, ErrDraining makes it
			// wait, and a deposed node is one to leave, not wait for.
			refused = ErrNotPrimary
		case g[0].w == nil && m.draining:
			m.metrics.drainRefusals.Add(uint64(len(g)))
			refused = ErrDraining
		}
		if refused != nil {
			for i := range g {
				g[i].err = refused
			}
			return false
		}
		m.expireLocked()
		if !m.reserved {
			return true
		}
		// The wait wakes on Confirm/Abort/expiry/Close broadcasts and on
		// the cancellation of the first still-live member.
		var waitCtx context.Context
		for i := range g {
			mb := &g[i]
			if mb.err == nil {
				mb.err = mb.callerCtx(ctx).Err()
			}
			if mb.err == nil && waitCtx == nil {
				waitCtx = mb.callerCtx(ctx)
			}
		}
		if waitCtx == nil {
			return false // every member gave up waiting
		}
		waitCond(m.cond, waitCtx, m.clk, m.timeout)
	}
}

// flushLocked is a commit's durability point: one flush of the staged
// entries, and an fsync under SyncWrites.
func (m *Manager) flushLocked() error {
	if m.metrics.flushNs == nil {
		return m.store.Commit(m.syncWrites)
	}
	start := m.clk.Now()
	err := m.store.Commit(m.syncWrites)
	m.metrics.flushNs.ObserveDuration(m.clk.Since(start))
	return err
}

// stageLocked stages one admitted action in the log's write buffer and
// installs the successor its admission computed. The caller owes the
// group one store.Commit.
func (m *Manager) stageLocked(a expr.Action, next state.Successor) error {
	if err := m.en.Check(next); err != nil {
		return err // refused before the log sees it
	}
	if m.store != nil {
		if err := m.store.Buffer(logEntry(a, m.en.Steps())); err != nil {
			return err
		}
	}
	return m.en.Commit(next)
}

// logEntry is the log entry of a, committed on top of steps.
func logEntry(a expr.Action, steps int) storage.Entry {
	return storage.Entry{Name: a.Name, Args: a.Values(), Seq: uint64(steps) + 1}
}

// deniedError keeps the refused action while remaining errors.Is-equal to
// ErrDenied, without paying fmt.Errorf on the hot deny path.
type deniedError struct{ a expr.Action }

func (e *deniedError) Error() string { return ErrDenied.Error() + ": " + e.a.String() }
func (e *deniedError) Unwrap() error { return ErrDenied }

// Request is the atomic ask+execute+confirm used by integration points
// that execute reliably under the manager's protection (the adapted
// workflow engine of Fig 11): the action is checked and committed in one
// critical section. With BatchMaxSize > 1 concurrent requests are group
// committed: coalesced into one critical-section pass with a single log
// flush/fsync for the whole group.
func (m *Manager) Request(ctx context.Context, a expr.Action) error {
	if m.batch != nil {
		w := &writer{ctx: ctx, act1: [1]expr.Action{a}}
		w.acts, w.errs = w.act1[:], w.err1[:]
		m.join(w)
		return w.errs[0]
	}
	m.mu.Lock()
	// Copied after the lock, whose atomic drains the stores that spilled
	// a: a copy right behind them stalls on store forwarding.
	g := [1]member{{a: a}}
	wait := m.groupCommitLocked(g[:], ctx)
	m.mu.Unlock()
	if wait != nil {
		settle(g[:], wait)
	}
	return g[0].err
}

// RequestMany submits a batch of atomic requests in one call and reports
// one error per action (nil = confirmed), in order. The actions commit
// with one admission check and one durability point instead of n: as
// one writer with batching enabled (split across consecutive groups when
// the burst exceeds BatchMaxSize), as one group of their own otherwise.
// Actions are validated in order against the state the previous ones
// produced, exactly as if n clients had raced their individual Requests
// and arrived in this order.
func (m *Manager) RequestMany(ctx context.Context, actions []expr.Action) []error {
	errs := make([]error, len(actions))
	switch {
	case len(actions) == 0:
	case m.batch != nil:
		m.join(&writer{ctx: ctx, acts: actions, errs: errs})
	default:
		m.commitInline(ctx, actions, errs)
	}
	return errs
}

// commitInline commits actions as one group of their own under m.mu,
// with no queue, and reports their outcomes in errs.
func (m *Manager) commitInline(ctx context.Context, actions []expr.Action, errs []error) {
	g := make([]member, len(actions))
	for i, a := range actions {
		g[i] = member{a: a}
	}
	m.mu.Lock()
	wait := m.groupCommitLocked(g, ctx)
	m.mu.Unlock()
	if wait != nil {
		settle(g, wait)
	}
	for i := range g {
		errs[i] = g[i].err
	}
}
