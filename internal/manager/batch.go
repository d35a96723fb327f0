package manager

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/state"
	"repro/internal/storage"
)

// Group commit. The atomic request path (Request/RequestMany) is the
// manager's hot path: under the one-at-a-time discipline every request
// takes the critical region alone, appends one log line and flushes (and,
// with SyncWrites, fsyncs) it before the next request may proceed, so
// throughput is bounded by per-action lock and syscall latency — not by
// the state engine, which the paper's benignity results make cheap
// (Sec 6). A commit queue fixes that the classic way: concurrent requests
// are coalesced into one batch that is admitted past the critical region
// once, validated and applied action by action through the operational
// semantics, staged into the log buffer, and settled with a single flush
// and at most a single fsync. Recovery is unchanged — the log contains
// the same entries in the same confirm order a one-at-a-time execution
// would have produced, so replay is provably equivalent (the
// crash-torture test exercises exactly this claim).

// defaultBatchDelay is the window an open batch waits for stragglers when
// Options.BatchMaxDelay is zero but batching is enabled.
const defaultBatchDelay = 200 * time.Microsecond

// commitReq is one atomic request waiting in the commit queue.
type commitReq struct {
	ctx  context.Context
	a    expr.Action
	done chan error // buffered(1); exactly one reply per request
}

// commitQueue coalesces concurrent atomic requests into group commits.
type commitQueue struct {
	ch      chan commitReq
	stop    chan struct{} // closed by Manager.Close: switch to drain mode
	drained chan struct{} // closed when no enqueuer is in flight anymore
	stopped chan struct{} // closed when the committer goroutine exited
	wg      sync.WaitGroup
	pending atomic.Int64 // admitted requests not yet answered (Drain waits on 0)
	maxSize int
	delay   time.Duration
}

func newCommitQueue(maxSize int, delay time.Duration) *commitQueue {
	if delay <= 0 {
		delay = defaultBatchDelay
	}
	return &commitQueue{
		ch:      make(chan commitReq, maxSize),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
		stopped: make(chan struct{}),
		maxSize: maxSize,
		delay:   delay,
	}
}

// enqueue submits one request and waits for its group commit to settle.
// The manager mutex guards admission, so no request can enter the queue
// after Close marked the manager closed — the committer therefore owes a
// reply to every request it can ever receive.
func (m *Manager) enqueue(ctx context.Context, a expr.Action) error {
	q := m.batch
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.role != rolePrimary {
		m.mu.Unlock()
		return ErrNotPrimary
	}
	if m.draining {
		m.metrics.drainRefusals.Inc()
		m.mu.Unlock()
		return ErrDraining
	}
	q.wg.Add(1)
	q.pending.Add(1)
	m.mu.Unlock()
	defer m.pendingDone(1)
	req := commitReq{ctx: ctx, a: a, done: make(chan error, 1)}
	select {
	case q.ch <- req:
	case <-ctx.Done():
		// The queue is backed up (e.g. the committer is parked behind an
		// ask/confirm reservation) and the caller gave up waiting for a
		// slot — nothing was submitted.
		return ctx.Err()
	}
	return <-req.done
}

// pendingDone retires n admitted requests. The queue-drained broadcast
// a Drain may be waiting on is taken under m.mu: an unlocked broadcast
// could fire between Drain's pending check and its cond registration —
// a lost wakeup that would park the drain until its context expired.
func (m *Manager) pendingDone(n int64) {
	q := m.batch
	q.wg.Done()
	if q.pending.Add(-n) == 0 {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// committer is the queue's single consumer: it collects a batch (up to
// maxSize requests), commits it, and repeats. After Close it fails the
// remaining queued requests with ErrClosed and exits once every enqueuer
// is gone.
//
// Collection is self-clocking rather than timer-paced: everything queued
// is drained, enqueuers already past admission get one scheduling chance
// to make the batch, and the commit starts the moment the queue runs dry
// (or delay elapsed, whichever is first). Requests that arrive during the
// commit — its flush and fsync are the cycle's dominant cost — accumulate
// in the channel and form the next batch, so coalescing scales with load
// by backpressure alone. A fixed straggler timer would instead put a
// timer wakeup on every cycle's critical path, which on a small machine
// quantizes to ~1ms and caps throughput at batchSize/1ms no matter how
// cheap the fsync is.
func (m *Manager) committer() {
	q := m.batch
	defer close(q.stopped)
	for {
		var first commitReq
		select {
		case first = <-q.ch:
		case <-q.stop:
			m.drainQueue()
			return
		}
		batch := append(make([]commitReq, 0, q.maxSize), first)
		deadline := m.clk.Now().Add(q.delay)
	collect:
		for len(batch) < q.maxSize {
			select {
			case r := <-q.ch:
				batch = append(batch, r)
				continue
			default:
			}
			if m.clk.Now().After(deadline) {
				break
			}
			// The queue is dry, but an admitted enqueuer may sit between
			// its admission check and its channel send; yield once so it
			// can make this batch instead of waiting out the next commit.
			runtime.Gosched()
			select {
			case r := <-q.ch:
				batch = append(batch, r)
			default:
				break collect
			}
		}
		// Queued requests passed the enqueue-time admission (incl. the
		// drain check), so a drain that started later still lets them
		// settle — they are in flight by definition.
		m.commitBatch(batch, true)
	}
}

// drainQueue fails every remaining queued request after Close. The
// drained channel (closed once q.wg hits zero, i.e. no enqueuer is in or
// before its channel send) bounds the loop.
func (m *Manager) drainQueue() {
	q := m.batch
	go func() {
		q.wg.Wait()
		close(q.drained)
	}()
	for {
		select {
		case r := <-q.ch:
			r.done <- ErrClosed
		case <-q.drained:
			return
		}
	}
}

// commitBatch runs one group commit: it takes the manager lock once,
// waits for the critical region to be free (one admission check per
// batch, not per action), then validates and applies each request in
// arrival order, staging log entries in the write buffer. A single
// flush — and at most a single fsync — makes the whole batch durable.
// admitted marks batches whose requests already passed the enqueue-time
// admission (the committer path); fresh batches are still subject to the
// drain check.
func (m *Manager) commitBatch(batch []commitReq, admitted bool) {
	errs := make([]error, len(batch))
	m.mu.Lock()
	for {
		if m.closed {
			m.mu.Unlock()
			for _, r := range batch {
				r.done <- ErrClosed
			}
			return
		}
		if m.role != rolePrimary {
			// Deposed (or started as a follower): writes are refused. A
			// batch caught by a mid-wait demotion fails the same way its
			// requests would have individually. Checked before the drain —
			// ErrNotPrimary makes the client fail over, ErrDraining makes
			// it wait, and a deposed node is one to leave, not wait for.
			m.mu.Unlock()
			for _, r := range batch {
				r.done <- ErrNotPrimary
			}
			return
		}
		if !admitted && m.draining {
			m.metrics.drainRefusals.Add(uint64(len(batch)))
			m.mu.Unlock()
			for _, r := range batch {
				r.done <- ErrDraining
			}
			return
		}
		m.expireLocked()
		if !m.reserved {
			break
		}
		// An outstanding ask/confirm reservation excludes the batch, just
		// as it would exclude each request individually. Requests whose
		// context expires while waiting fail in place; the wait wakes on
		// Confirm/Abort/expiry/Close broadcasts and on cancellation of
		// the first still-live request.
		var waitCtx context.Context
		for i, r := range batch {
			if errs[i] != nil {
				continue
			}
			if err := r.ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			if waitCtx == nil {
				waitCtx = r.ctx
			}
		}
		if waitCtx == nil {
			// Every request gave up waiting.
			m.mu.Unlock()
			for i, r := range batch {
				r.done <- errs[i]
			}
			return
		}
		waitCond(m.cond, waitCtx, m.clk, m.timeout)
	}
	applied := 0
	batchBase := uint64(m.en.Steps())
	var appliedActs []expr.Action
	for i, r := range batch {
		if errs[i] != nil {
			continue
		}
		m.stats.Asks++
		m.metrics.asks.Inc()
		if err := r.ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		next := m.en.Advance(r.a)
		if !next.Permissible() {
			m.stats.Denies++
			m.metrics.denies.Inc()
			errs[i] = &deniedError{r.a}
			continue
		}
		if errs[i] = m.stageLocked(r.a, next); errs[i] != nil {
			continue
		}
		m.stats.Grants++
		m.stats.Confirms++
		m.stats.Transits++
		applied++
		appliedActs = append(appliedActs, r.a)
	}
	m.metrics.askMeter.Mark(uint64(len(batch)))
	m.metrics.grants.Add(uint64(applied))
	m.metrics.confirms.Add(uint64(applied))
	var wait func() error
	if applied > 0 {
		m.metrics.batchSize.Observe(uint64(applied))
		if m.store != nil {
			flushStart := m.clk.Now()
			if err := m.store.Commit(m.syncWrites); err != nil {
				// The flush failed after the engine advanced: the in-memory
				// state may be ahead of the durable log, exactly the exposure
				// any group commit has at its single durability point. Report
				// the failure to the whole batch — the outcome of each
				// member is unknown to its client, like a connection lost
				// between execute and confirm.
				m.mu.Unlock()
				for _, r := range batch {
					r.done <- err
				}
				return
			}
			m.metrics.flushNs.ObserveDuration(m.clk.Since(flushStart))
		}
		// One replication frame per batch: the followers pay one apply pass
		// and one durability point for the whole group commit, exactly
		// like the primary.
		wait = m.replicateLocked(batchBase, appliedActs, nil)
		// One subscription sweep and at most one checkpoint per batch:
		// subscribers observe the net effect (they are documented to only
		// ever need the latest status), and the snapshot interval counts
		// confirms, not batches.
		m.notifyLocked()
		m.sinceSnap += applied - 1 // maybeSnapshotLocked adds the last one
		m.maybeSnapshotLocked()
	}
	m.mu.Unlock()
	if wait != nil {
		// Sync replication: the batch is acknowledged only after every
		// follower applied it. A failed ack makes every applied member
		// uncertain — like a connection lost between execute and confirm.
		if werr := wait(); werr != nil {
			for i := range batch {
				if errs[i] == nil {
					errs[i] = werr
				}
			}
		}
	}
	for i, r := range batch {
		r.done <- errs[i]
	}
}

// stageLocked stages one admitted action in the log's write buffer and
// installs the successor its admission computed. The caller owes the
// batch one store.Commit.
func (m *Manager) stageLocked(a expr.Action, next state.Successor) error {
	if err := m.en.Check(next); err != nil {
		return err // refused before the log sees it
	}
	if m.store != nil {
		le := storage.Entry{Name: a.Name, Args: a.Values(), Seq: uint64(m.en.Steps()) + 1}
		if err := m.store.Buffer(le); err != nil {
			return err
		}
	}
	return m.en.Commit(next)
}

// deniedError keeps the refused action while remaining errors.Is-equal to
// ErrDenied, without paying fmt.Errorf on the hot deny path.
type deniedError struct{ a expr.Action }

func (e *deniedError) Error() string { return ErrDenied.Error() + ": " + e.a.String() }
func (e *deniedError) Unwrap() error { return ErrDenied }

// RequestMany submits a batch of atomic requests in one call and reports
// one error per action (nil = confirmed), in order. With batching enabled
// the actions join the commit queue together; otherwise they are applied
// back to back in one critical section with a single log flush — either
// way the actions commit with one admission check and one durability
// point instead of n. Actions are validated in order against the state
// the previous ones produced, exactly as if n clients had raced their
// individual Requests and arrived in this order.
func (m *Manager) RequestMany(ctx context.Context, actions []expr.Action) []error {
	errs := make([]error, len(actions))
	if len(actions) == 0 {
		return errs
	}
	if q := m.batch; q != nil {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			for i := range errs {
				errs[i] = ErrClosed
			}
			return errs
		}
		if m.role != rolePrimary {
			m.mu.Unlock()
			for i := range errs {
				errs[i] = ErrNotPrimary
			}
			return errs
		}
		if m.draining {
			m.metrics.drainRefusals.Add(uint64(len(actions)))
			m.mu.Unlock()
			for i := range errs {
				errs[i] = ErrDraining
			}
			return errs
		}
		q.wg.Add(1)
		q.pending.Add(int64(len(actions)))
		m.mu.Unlock()
		defer m.pendingDone(int64(len(actions)))
		// A single sender keeps the actions in order; the committer drains
		// the channel in that order, so they are validated and applied in
		// sequence (possibly interleaved with other clients' requests, and
		// possibly across adjacent batches when the burst exceeds the
		// batch size). If the context dies while the queue is backed up,
		// the unsent tail fails with the context error; already-submitted
		// actions are still awaited (the committer owes them a reply).
		reqs := make([]commitReq, len(actions))
		sent := len(actions)
		for i, a := range actions {
			reqs[i] = commitReq{ctx: ctx, a: a, done: make(chan error, 1)}
			select {
			case q.ch <- reqs[i]:
				continue
			case <-ctx.Done():
			}
			sent = i
			break
		}
		for i := 0; i < sent; i++ {
			errs[i] = <-reqs[i].done
		}
		for i := sent; i < len(actions); i++ {
			errs[i] = ctx.Err()
		}
		return errs
	}
	reqs := make([]commitReq, len(actions))
	for i, a := range actions {
		reqs[i] = commitReq{ctx: ctx, a: a, done: make(chan error, 1)}
	}
	m.commitBatch(reqs, false)
	for i := range reqs {
		errs[i] = <-reqs[i].done
	}
	return errs
}
