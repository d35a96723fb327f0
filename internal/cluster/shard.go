// Package cluster implements the distributed sharded coordination
// subsystem sketched at the end of Sec 7 of the paper: a top-level
// coupling y1 @ y2 @ ... @ yn is semantically a per-alphabet conjunction,
// so each operand can be executed by an independent interaction manager —
// here a remote one behind the JSON-lines TCP protocol of
// internal/manager. A Gateway fronts the shard servers, routes actions by
// a precomputed name index, and runs the two-phase
// reserve-in-global-order/confirm-all grant across the involved shards,
// aborting granted reservations when any shard refuses.
//
// Each shard may be a replica set: an ordered list of servers replicating
// each other (internal/manager's primary/follower streams). The shard
// client elects the most advanced reachable replica — highest epoch, then
// primaries over followers, then most commits — promotes it if it is a
// follower, and fails over automatically when the connection dies or the
// server answers ErrNotPrimary (a deposed primary).
//
// The package talks to shards exclusively through the exported wire
// client of internal/manager, so any process serving the wire protocol
// (cmd/ixmanager, a test server, or another gateway) can be a shard.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/obs"
)

// ShardOptions configure a replica-set shard client.
type ShardOptions struct {
	// ReadFromFollowers routes idempotent status probes (Try, Final) to
	// follower replicas round-robin, offloading the primary. Probes are
	// advisory by nature (the answer can be stale the moment it arrives);
	// with async replication a follower's answer may additionally lag the
	// primary by the un-acked frames.
	ReadFromFollowers bool
	// DrainRetryDelay paces retries against a shard refusing with
	// ErrDraining (a migration is moving it). Zero keeps the historical
	// 2ms; a negative value disables the wait-out entirely, surfacing
	// ErrDraining to the caller — for callers that would rather reroute
	// than block. The wait is always context-cancellable.
	DrainRetryDelay time.Duration
	// Metrics, if non-nil, makes the shard client count asks (as a rate
	// meter), drain-waits, failover elections and subscription heals into
	// the registry. Label tags the metric names (e.g. the shard index) so
	// one gateway registry keeps its shards apart.
	Metrics *obs.Registry
	// Label distinguishes this shard's metrics inside a shared registry;
	// empty leaves the names unlabeled (single-shard setups).
	Label string
	// Dialer replaces the TCP transport for every connection the client
	// opens (elections, read offload, subscriptions). Nil means TCP; the
	// deterministic simulator (internal/sim) injects its in-memory
	// network here.
	Dialer func(addr string) (net.Conn, error)
	// Clock injects the time source for drain-retry pacing and
	// resubscription backoff. Nil means the wall clock.
	Clock clock.Clock
}

// shardMetrics caches the shard client's obs handles (nil-safe no-ops
// when ShardOptions.Metrics is nil).
type shardMetrics struct {
	asks       *obs.Meter
	drainWaits *obs.Counter
	failovers  *obs.Counter
	subHeals   *obs.Counter
}

// shardMetricName tags a base metric name with the shard label.
func shardMetricName(base, label string) string {
	if label == "" {
		return base
	}
	return base + `{shard="` + label + `"}`
}

func newShardMetrics(reg *obs.Registry, label string) shardMetrics {
	return shardMetrics{
		asks:       reg.Meter(shardMetricName("ix_shard_asks", label)),
		drainWaits: reg.Counter(shardMetricName("ix_shard_drain_waits_total", label)),
		failovers:  reg.Counter(shardMetricName("ix_shard_failovers_total", label)),
		subHeals:   reg.Counter(shardMetricName("ix_shard_sub_heals_total", label)),
	}
}

// ShardClient is a self-healing wire client for one shard — a single
// server or an ordered replica set. It dials lazily, detects dead
// connections, and on failure elects (and if necessary promotes) the most
// advanced reachable replica. Operations whose request provably never
// reached a server (ErrSendFailed) are retried transparently; operations
// that may have been processed (ErrConnLost mid-flight) are retried only
// if idempotent — exactly the queued-request discipline recovery demands.
type ShardClient struct {
	opts       ShardOptions
	drainDelay time.Duration // resolved ErrDraining retry pacing
	clk        clock.Clock
	metrics    shardMetrics

	mu     sync.Mutex
	addrs  []string // ordered endpoint list (the shard's route-table row)
	cur    int      // index of the endpoint cl is connected to
	cl     *manager.Client
	gen    uint64 // route-table generation: bumped on failover and endpoint changes
	closed bool
	// inflight holds the connections with do() operations in flight.
	inflight map[*manager.Client]connUse

	rmu  sync.Mutex
	rcur int // read rotation cursor (follower offload)
	rcl  *manager.Client

	// smu guards the subscription mux table: one healing wire
	// subscription per distinct action, shared by every local subscriber.
	smu  sync.Mutex
	smux map[string]*subMux

	// migrateMu serializes live migrations of this shard (Rebalancer):
	// concurrent promotions from one epoch would split the brain.
	migrateMu sync.Mutex
}

// NewShardClient creates a client for the single shard server at addr.
// No connection is made until the first operation, so a gateway can be
// assembled before every shard server is up.
func NewShardClient(addr string) *ShardClient {
	return NewShardClientSet([]string{addr}, ShardOptions{})
}

// NewShardClientSet creates a client for an ordered replica set. The
// first reachable, most advanced replica serves; on disconnect the client
// fails over along the list, promoting a follower when no primary is
// left. A single-address set never issues role or promote ops, so it can
// front any Coordinator (e.g. another gateway), like NewShardClient
// always could.
func NewShardClientSet(addrs []string, opts ShardOptions) *ShardClient {
	s := &ShardClient{addrs: addrs, opts: opts, drainDelay: opts.DrainRetryDelay,
		clk: clock.Or(opts.Clock), smux: make(map[string]*subMux),
		inflight: make(map[*manager.Client]connUse)}
	if s.drainDelay == 0 {
		s.drainDelay = drainRetryDelay
	}
	s.metrics = newShardMetrics(opts.Metrics, opts.Label)
	// The ask meter's rate window runs on the injected clock, so
	// per-shard client-side ask rates are deterministic under the
	// simulator's logical clock.
	obs.SetMeterClock(s.metrics.asks, func() int64 { return s.clk.Now().Unix() })
	return s
}

// dial opens one connection through the configured transport (TCP by
// default, the simulator's in-memory network when injected).
func (s *ShardClient) dial(addr string) (*manager.Client, error) {
	return manager.DialWith(addr, manager.DialOptions{Dialer: s.opts.Dialer})
}

// Addr returns the shard's first endpoint (diagnostics).
func (s *ShardClient) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addrs[0]
}

// Addrs returns a copy of the shard's ordered endpoint list.
func (s *ShardClient) Addrs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.addrs...)
}

func (s *ShardClient) addrCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.addrs)
}

// Generation counts completed failovers and route-table updates that
// (may have) changed the serving endpoint. A gateway compares
// generations taken at reserve time and at confirm time: a bump in
// between means a ticket may have died with the old primary and the
// grant must be resumed instead of settled.
func (s *ShardClient) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// SetAddrs replaces the endpoint list — the route-table update a live
// migration ends with. The serving connection survives when its endpoint
// is still listed (requests in flight are not dropped); when it is not,
// the connection is retired (no new request uses it, the ones in flight
// still get their replies) and the generation bumps, so in-flight
// two-phase grants settle through the resume path instead of trusting a
// retired server. The read-offload rotation restarts against the new
// table either way. An empty list is ignored.
func (s *ShardClient) SetAddrs(addrs []string) {
	if len(addrs) == 0 {
		return
	}
	cp := append([]string(nil), addrs...)
	s.mu.Lock()
	cur := -1
	if s.cl != nil {
		curAddr := s.addrs[s.cur]
		for i, a := range cp {
			if a == curAddr {
				cur = i
				break
			}
		}
	}
	s.addrs = cp
	var stale *manager.Client
	if cur >= 0 {
		s.cur = cur
	} else {
		s.cur = 0
		if s.cl != nil {
			if cl := s.cl; s.retireLocked(cl, false) {
				stale = cl
			}
			s.gen++
		}
	}
	s.mu.Unlock()
	if stale != nil {
		stale.Close()
	}
	s.rmu.Lock()
	rcl := s.rcl
	s.rcl, s.rcur = nil, 0
	s.rmu.Unlock()
	if rcl != nil {
		rcl.Close()
	}
}

// AddAddr appends an endpoint to the route table (no-op when already
// listed). Adding is always safe mid-flight: a fresh follower never wins
// an election while a live higher-epoch primary exists.
func (s *ShardClient) AddAddr(addr string) {
	s.mu.Lock()
	for _, a := range s.addrs {
		if a == addr {
			s.mu.Unlock()
			return
		}
	}
	addrs := append(append([]string(nil), s.addrs...), addr)
	s.mu.Unlock()
	s.SetAddrs(addrs)
}

// RemoveAddr drops an endpoint from the route table (the retire step of
// a migration). Removing the serving endpoint invalidates the connection
// and bumps the generation; the last endpoint cannot be removed.
func (s *ShardClient) RemoveAddr(addr string) {
	s.mu.Lock()
	var addrs []string
	for _, a := range s.addrs {
		if a != addr {
			addrs = append(addrs, a)
		}
	}
	s.mu.Unlock()
	s.SetAddrs(addrs)
}

// electTimeout bounds each role probe and promotion during an election.
const electTimeout = 5 * time.Second

// connUse is the use of one connection: the calls in flight on it, and
// whether it was taken out of service while a live server still owed
// them replies, in which case the last call to return closes it.
type connUse struct {
	n       int
	retired bool
}

// acquire returns the live connection and its endpoint, electing a
// replica if necessary, with one more call counted in flight on it;
// release ends the call. The connection is shared with every other
// caller (the wire client multiplexes); callers must not close it.
func (s *ShardClient) acquire(ctx context.Context) (*manager.Client, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", manager.ErrClosed
	}
	cl := s.cl
	if cl == nil {
		var err error
		if cl, err = s.electLocked(ctx); err != nil {
			return nil, "", err
		}
	}
	u := s.inflight[cl]
	u.n++
	s.inflight[cl] = u
	return cl, s.addrs[s.cur], nil
}

// release ends one call on cl.
func (s *ShardClient) release(cl *manager.Client) {
	s.mu.Lock()
	u := s.inflight[cl]
	u.n--
	if u.n == 0 {
		delete(s.inflight, cl)
	} else {
		s.inflight[cl] = u
	}
	s.mu.Unlock()
	if u.n == 0 && u.retired {
		cl.Close()
	}
}

// retireLocked takes cl out of service and reports whether the caller
// must close it now (outside the lock). A dead connection always closes
// now. A live one — its server is about to answer the calls in flight
// on it, and they are not all safe to retry — is left to the last
// release when there are any. Callers hold s.mu.
func (s *ShardClient) retireLocked(cl *manager.Client, dead bool) bool {
	if s.cl == cl {
		s.cl = nil
	}
	u, busy := s.inflight[cl]
	if dead || !busy {
		return true
	}
	u.retired = true
	s.inflight[cl] = u
	return false
}

// electLocked (re)connects: with a single endpoint it plainly dials;
// with a replica set it probes every endpoint's role and adopts the most
// advanced reachable replica — highest epoch first (a deposed primary
// must never win over the node that fenced it), then primaries over
// followers, then the most commits — promoting the winner when the set
// has no primary left. Callers hold s.mu.
func (s *ShardClient) electLocked(ctx context.Context) (*manager.Client, error) {
	if len(s.addrs) == 1 {
		cl, err := s.dial(s.addrs[0])
		if err != nil {
			return nil, err
		}
		s.cl = cl
		return cl, nil
	}
	type candidate struct {
		idx int
		cl  *manager.Client
		st  manager.ReplStatus
	}
	var cands []candidate
	var firstErr error
	for off := 0; off < len(s.addrs); off++ {
		idx := (s.cur + off) % len(s.addrs)
		cl, err := s.dial(s.addrs[idx])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, electTimeout)
		st, err := cl.Role(rctx)
		cancel()
		if err != nil {
			cl.Close()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		cands = append(cands, candidate{idx: idx, cl: cl, st: st})
	}
	if len(cands) == 0 {
		if firstErr == nil {
			firstErr = errors.New("cluster: no replica reachable")
		}
		return nil, fmt.Errorf("%w: %v", manager.ErrSendFailed, firstErr)
	}
	best := 0
	for i := 1; i < len(cands); i++ {
		if better(cands[i].st, cands[best].st) {
			best = i
		}
	}
	chosen := cands[best]
	for i, c := range cands {
		if i != best {
			c.cl.Close()
		}
	}
	promoted := false
	if chosen.st.Role != manager.RolePrimary {
		pctx, cancel := context.WithTimeout(ctx, electTimeout)
		_, err := chosen.cl.Promote(pctx)
		cancel()
		if err != nil {
			chosen.cl.Close()
			return nil, fmt.Errorf("cluster: promote %s: %w", s.addrs[chosen.idx], err)
		}
		promoted = true
	}
	// A promotion bumps the generation even on an unchanged endpoint: the
	// new epoch means tickets granted before the election may be gone.
	if chosen.idx != s.cur || promoted {
		s.gen++
		s.metrics.failovers.Inc()
	}
	s.cur = chosen.idx
	s.cl = chosen.cl
	return chosen.cl, nil
}

// BetterReplica reports whether replica status a outranks b in the
// failover election order: highest epoch first (a deposed primary must
// never win over the node that fenced it), then primaries over
// followers, then the most commits. Exported for the chaos harnesses
// (internal/sim), which pick the authoritative surviving replica with
// exactly the client's ordering.
func BetterReplica(a, b manager.ReplStatus) bool { return better(a, b) }

// DropConn severs the client's current primary connection without
// touching the server — a network blip between gateway and shard. The
// next operation redials through the ordinary failover election. Fault
// injection for the chaos harnesses (internal/sim).
func (s *ShardClient) DropConn() {
	s.mu.Lock()
	cl := s.cl
	s.cl = nil
	s.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// better orders replica candidates: epoch, then role, then position.
func better(a, b manager.ReplStatus) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	ap, bp := a.Role == manager.RolePrimary, b.Role == manager.RolePrimary
	if ap != bp {
		return ap
	}
	return a.Steps > b.Steps
}

// discard stops handing out cl, so the next operation re-elects; another
// goroutine may have reconnected already, and its fresh connection is
// left alone. dead says the connection is lost, as opposed to answered
// by a deposed but live server (see retireLocked).
func (s *ShardClient) discard(cl *manager.Client, dead bool) {
	s.mu.Lock()
	closeNow := s.retireLocked(cl, dead)
	s.mu.Unlock()
	if closeNow {
		cl.Close()
	}
}

// connErr reports whether err indicates a dead connection (as opposed to
// a protocol-level refusal, which must not trigger a reconnect).
func connErr(err error) bool {
	return errors.Is(err, manager.ErrConnLost) || errors.Is(err, manager.ErrSendFailed)
}

// failoverErr reports whether err should move the client to another
// replica: a dead connection, or a live server refusing writes because
// it is (or was deposed to) a follower.
func failoverErr(err error) bool {
	return connErr(err) || errors.Is(err, manager.ErrNotPrimary)
}

// retryable reports whether err may be retried on a fresh connection for
// an operation with the given idempotency. ErrNotPrimary is always
// retryable: the follower refused before doing anything.
func retryable(err error, idempotent bool) bool {
	if errors.Is(err, manager.ErrSendFailed) || errors.Is(err, manager.ErrNotPrimary) {
		return true // the request was not processed anywhere
	}
	return idempotent && errors.Is(err, manager.ErrConnLost)
}

// drainRetryDelay paces retries against a draining shard: the drain
// window closes when the migration promotes the target, so a short wait
// beats hammering the refusing server — but it sits on the client's
// request latency during a migration, so it stays small. This is the
// default; ShardOptions.DrainRetryDelay overrides it.
const drainRetryDelay = 2 * time.Millisecond

// do runs op against the current connection, failing over and retrying
// when that is safe. A replica set gets one retry per endpoint (a full
// failover sweep); a single server keeps the historical single retry.
// ErrDraining answers are waited out (they are transient by contract —
// a migration is about to repoint the shard) without burning a failover
// attempt; only the context bounds that wait.
func (s *ShardClient) do(ctx context.Context, idempotent bool, op func(*manager.Client) error) error {
	attempts := 0
	for {
		cl, _, err := s.acquire(ctx)
		if err == nil {
			err = func() error {
				defer s.release(cl)
				return op(cl)
			}()
			if err == nil {
				return nil
			}
			if errors.Is(err, manager.ErrDraining) {
				// Not admitted anywhere: always safe to retry. The server is
				// healthy, so keep the connection — once the target is
				// promoted it answers ErrNotPrimary and the ordinary
				// failover election takes over. A negative DrainRetryDelay
				// opts out of the wait: the caller sees ErrDraining and can
				// reroute instead of blocking on the migration window.
				if s.drainDelay < 0 {
					return err
				}
				s.metrics.drainWaits.Inc()
				t := s.clk.NewTimer(s.drainDelay)
				select {
				case <-ctx.Done():
					t.Stop()
					return err
				case <-t.C():
				}
				continue
			}
			if failoverErr(err) {
				// Dead, or alive but deposed: stop using the connection and
				// let the election find the replica that serves now.
				s.discard(cl, connErr(err))
			}
		}
		attempts++
		if attempts > s.addrCount() || !retryable(err, idempotent) || ctx.Err() != nil {
			return err
		}
	}
}

// Ask reserves a at the shard (step 1/2 of the coordination protocol).
func (s *ShardClient) Ask(ctx context.Context, a expr.Action) (manager.Ticket, error) {
	s.metrics.asks.Mark(1)
	var t manager.Ticket
	err := s.do(ctx, false, func(cl *manager.Client) error {
		var err error
		t, err = cl.Ask(ctx, a)
		return err
	})
	return t, err
}

// Confirm settles a granted ask. The manager answers a retried confirm of
// a recently settled ticket from its replicated dedup window, so a
// confirm whose reply was lost may be retried on a fresh connection — or
// on the follower promoted after a failover — without risking a double
// commit.
func (s *ShardClient) Confirm(ctx context.Context, t manager.Ticket) error {
	return s.do(ctx, true, func(cl *manager.Client) error { return cl.Confirm(ctx, t) })
}

// Abort releases a granted ask.
func (s *ShardClient) Abort(ctx context.Context, t manager.Ticket) error {
	return s.do(ctx, false, func(cl *manager.Client) error { return cl.Abort(ctx, t) })
}

// Request runs the atomic ask+confirm at the shard.
func (s *ShardClient) Request(ctx context.Context, a expr.Action) error {
	s.metrics.asks.Mark(1)
	return s.do(ctx, false, func(cl *manager.Client) error { return cl.Request(ctx, a) })
}

// RequestMany ships a burst of atomic requests to the shard in one framed
// multi-op message and reports one error per action. Like Request the
// burst is not idempotent: only a send that provably never left this
// machine (or was refused whole by a follower) is retried.
func (s *ShardClient) RequestMany(ctx context.Context, actions []expr.Action) []error {
	s.metrics.asks.Mark(uint64(len(actions)))
	var errs []error
	err := s.do(ctx, false, func(cl *manager.Client) error {
		errs = cl.RequestMany(ctx, actions)
		// Surface a transport failure (the same error in every slot) to
		// the retry logic; per-action refusals are final results. A
		// frame refused whole by a draining manager (nothing admitted)
		// waits the drain window out like a single request would — but
		// only when EVERY slot drained: a nested gateway can mix
		// outcomes, and re-sending a burst with settled slots would
		// double-commit them.
		if len(errs) > 0 && errs[0] != nil && failoverErr(errs[0]) {
			return errs[0]
		}
		allDraining := len(errs) > 0
		for _, e := range errs {
			if !errors.Is(e, manager.ErrDraining) {
				allDraining = false
				break
			}
		}
		if allDraining {
			return errs[0]
		}
		return nil
	})
	if err != nil && errs == nil {
		errs = make([]error, len(actions))
		for i := range errs {
			errs[i] = err
		}
	}
	return errs
}

// Try probes a's status (idempotent: retried across reconnects). With
// ReadFromFollowers the probe is served by a follower replica when one
// answers, offloading the primary.
func (s *ShardClient) Try(ctx context.Context, a expr.Action) (bool, error) {
	var ok bool
	op := func(cl *manager.Client) error {
		var err error
		ok, err = cl.Try(ctx, a)
		return err
	}
	if s.readOffloaded(op) {
		return ok, nil
	}
	err := s.do(ctx, true, op)
	return ok, err
}

// Final reports whether the shard's word is complete (idempotent; served
// by a follower under ReadFromFollowers when one answers).
func (s *ShardClient) Final(ctx context.Context) (bool, error) {
	var fin bool
	op := func(cl *manager.Client) error {
		var err error
		fin, err = cl.Final(ctx)
		return err
	}
	if s.readOffloaded(op) {
		return fin, nil
	}
	err := s.do(ctx, true, op)
	return fin, err
}

// readOffloaded tries to serve a read on a follower connection and
// reports whether it succeeded; any failure falls back to the primary
// path (the next rotation will try another replica). The lock guards
// only the connection swap, not the wire call — the client multiplexes,
// so concurrent offloaded reads share the connection instead of
// convoying behind each other.
func (s *ShardClient) readOffloaded(op func(*manager.Client) error) bool {
	if !s.opts.ReadFromFollowers || s.addrCount() < 2 {
		return false
	}
	s.rmu.Lock()
	cl := s.rcl
	if cl == nil {
		s.mu.Lock()
		primary := s.cur
		addrs := append([]string(nil), s.addrs...)
		s.mu.Unlock()
		for off := 0; off < len(addrs); off++ {
			idx := (s.rcur + off) % len(addrs)
			if idx == primary {
				continue // the whole point is to not bother the primary
			}
			c, err := s.dial(addrs[idx])
			if err != nil {
				continue
			}
			cl, s.rcl = c, c
			s.rcur = idx + 1
			break
		}
	}
	s.rmu.Unlock()
	if cl == nil {
		return false
	}
	if err := op(cl); err != nil {
		s.rmu.Lock()
		if s.rcl == cl {
			s.rcl = nil
		}
		s.rmu.Unlock()
		cl.Close()
		return false
	}
	return true
}

// Subscribe opens a self-healing subscription at the shard: when the
// per-connection stream dies (the primary crashed, the shard migrated),
// the subscription resubscribes through the ordinary failover election
// and keeps delivering — the server's initial inform after each
// resubscription reports the then-current status, so no flip that
// matters is lost across the gap. ctx bounds only the initial setup; the
// subscription itself lives until the cancel function is called (or the
// client is closed), never on the setup context. The returned channel
// closes on cancel or client close.
//
// Subscriptions to the same action share one wire subscription (and one
// healing loop): N local subscribers cost the shard a single stream,
// and a failover heals once per action instead of once per subscriber.
// Joiners get their initial status from the shared stream's cache.
func (s *ShardClient) Subscribe(ctx context.Context, a expr.Action) (<-chan manager.Inform, func(), error) {
	key := a.Key()
	s.smu.Lock()
	defer s.smu.Unlock()
	if mux := s.smux[key]; mux != nil {
		if ch, cancel, ok := mux.join(); ok {
			return ch, cancel, nil
		}
		delete(s.smux, key) // wound down concurrently: open a fresh stream
	}
	inner, cancelInner, err := s.subscribeOnce(ctx, a)
	if err != nil {
		return nil, nil, err
	}
	h := &healingSub{s: s, a: a, out: make(chan manager.Inform, 16), inner: inner, cancelInner: cancelInner}
	h.ctx, h.stop = context.WithCancel(context.Background())
	mux := &subMux{s: s, key: key, h: h, members: make(map[uint64]chan manager.Inform)}
	ch, cancel, _ := mux.join() // registered before forwarding starts: the initial inform is not missable
	s.smux[key] = mux
	go h.run()
	go mux.forward(h.out)
	return ch, cancel, nil
}

// subMux fans one healing shard subscription out to every local
// subscriber of its action.
type subMux struct {
	s   *ShardClient
	key string
	h   *healingSub

	mu      sync.Mutex
	nextID  uint64
	members map[uint64]chan manager.Inform
	known   bool // an inform has arrived; last is meaningful
	last    manager.Inform
	done    bool
}

// join adds a member. It reports false when the mux has already wound
// down (the last member left or the stream ended) and cannot be joined.
func (m *subMux) join() (<-chan manager.Inform, func(), bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return nil, nil, false
	}
	m.nextID++
	id := m.nextID
	ch := make(chan manager.Inform, 16)
	m.members[id] = ch
	if m.known {
		ch <- m.last // fresh buffered channel: never blocks
	}
	return ch, func() { m.leave(id) }, true
}

// leave removes a member; the last one out cancels the shared stream.
func (m *subMux) leave(id uint64) {
	m.mu.Lock()
	ch, ok := m.members[id]
	if !ok {
		m.mu.Unlock() // canceled twice, or the stream closed it already
		return
	}
	delete(m.members, id)
	close(ch)
	empty := len(m.members) == 0
	if empty {
		m.done = true
	}
	m.mu.Unlock()
	if empty {
		m.s.smu.Lock()
		if m.s.smux[m.key] == m {
			delete(m.s.smux, m.key)
		}
		m.s.smu.Unlock()
		m.h.cancel()
	}
}

// forward broadcasts the healing stream to every member with the usual
// drop-oldest policy, then closes the members when the stream ends
// (cancel, or the shard client closed).
func (m *subMux) forward(in <-chan manager.Inform) {
	for inf := range in {
		m.mu.Lock()
		m.known, m.last = true, inf
		for _, ch := range m.members {
			select {
			case ch <- inf:
			default:
				select {
				case <-ch:
				default:
				}
				select {
				case ch <- inf:
				default:
				}
			}
		}
		m.mu.Unlock()
	}
	m.mu.Lock()
	m.done = true
	for id, ch := range m.members {
		delete(m.members, id)
		close(ch)
	}
	m.mu.Unlock()
	m.s.smu.Lock()
	if m.s.smux[m.key] == m {
		delete(m.s.smux, m.key)
	}
	m.s.smu.Unlock()
}

// subscribeOnce opens one subscription on the current (elected)
// connection. The cancel function targets exactly the connection that
// owns the subscription — not whatever connection a later failover
// elected — and uses its own context, so a caller's canceled setup
// context can never tear down a live subscription.
func (s *ShardClient) subscribeOnce(ctx context.Context, a expr.Action) (<-chan manager.Inform, func(), error) {
	var ch <-chan manager.Inform
	var cancel func()
	err := s.do(ctx, true, func(cl *manager.Client) error {
		sub, err := cl.Subscribe(ctx, a)
		if err != nil {
			return err
		}
		ch = sub.C
		cancel = func() {
			cctx, cdone := context.WithTimeout(context.Background(), 5*time.Second)
			defer cdone()
			_ = cl.Unsubscribe(cctx, sub) // on a dead connection the channel is closed already
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ch, cancel, nil
}

// healingSub forwards one shard subscription across failovers and
// migrations, resubscribing whenever the owning connection dies.
type healingSub struct {
	s   *ShardClient
	a   expr.Action
	out chan manager.Inform
	ctx context.Context // canceled by the subscriber's cancel func

	mu          sync.Mutex
	stop        context.CancelFunc
	inner       <-chan manager.Inform
	cancelInner func() // unsubscribes on the connection owning the current sub
}

// cancel is the subscriber-facing teardown.
func (h *healingSub) cancel() {
	h.stop()
	h.mu.Lock()
	cancelInner := h.cancelInner
	h.mu.Unlock()
	if cancelInner != nil {
		cancelInner()
	}
}

// run forwards informs, healing the stream on unexpected closes.
func (h *healingSub) run() {
	defer close(h.out)
	for {
		h.mu.Lock()
		inner := h.inner
		h.mu.Unlock()
		for inf := range inner {
			select {
			case h.out <- inf:
			default:
				// Drop the oldest pending inform to make room for the
				// newest: a slow subscriber always observes the latest
				// status.
				select {
				case <-h.out:
				default:
				}
				select {
				case h.out <- inf:
				default:
				}
			}
		}
		// The stream ended: canceled, or the owning connection died.
		if h.ctx.Err() != nil {
			return
		}
		if !h.resubscribe() {
			return
		}
	}
}

// resubscribe re-opens the subscription through the failover election,
// retrying with backoff until it succeeds or the subscription is
// canceled (or the shard client closed). The generation the election
// bumps is what distinguishes "the primary moved" from "a network blip";
// either way the fresh subscription's initial inform resynchronizes the
// subscriber with the authoritative status.
func (h *healingSub) resubscribe() bool {
	backoff := drainRetryDelay
	for {
		sctx, cancel := context.WithTimeout(h.ctx, shardSettleTimeout)
		inner, cancelInner, err := h.s.subscribeOnce(sctx, h.a)
		cancel()
		if err == nil {
			h.mu.Lock()
			h.inner, h.cancelInner = inner, cancelInner
			canceled := h.ctx.Err() != nil
			h.mu.Unlock()
			if canceled {
				// Lost the race with cancel: tear the fresh sub down too.
				cancelInner()
				return false
			}
			h.s.metrics.subHeals.Inc()
			return true
		}
		if errors.Is(err, manager.ErrClosed) || h.ctx.Err() != nil {
			return false
		}
		select {
		case <-h.ctx.Done():
			return false
		case <-h.s.clk.After(backoff):
		}
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// Close tears down the connections and marks the client closed: later
// operations fail with ErrClosed and self-healing subscriptions end
// (their channels close) instead of redialing a retired shard forever.
func (s *ShardClient) Close() error {
	s.mu.Lock()
	cl := s.cl
	s.cl = nil
	s.closed = true
	s.mu.Unlock()
	s.rmu.Lock()
	rcl := s.rcl
	s.rcl = nil
	s.rmu.Unlock()
	var firstErr error
	if cl != nil {
		firstErr = cl.Close()
	}
	if rcl != nil {
		if err := rcl.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
