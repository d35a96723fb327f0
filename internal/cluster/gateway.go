package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/placement"
)

// Gateway coordinates one coupled interaction expression across N remote
// shard servers, one per coupling operand. It implements
// manager.Coordinator, so it can be used like a manager — including being
// served over the wire protocol itself (cmd/ixgateway), which lets
// ordinary clients talk to the cluster without knowing it is one.
//
// An action is permitted iff every shard whose alphabet contains it
// permits it. Grants run in two phases: reservations are taken at every
// involved shard in ascending shard order (a fixed global order, which
// precludes deadlock between concurrent multi-shard grants), then all are
// confirmed — or the ones already granted are aborted when any shard
// refuses.
type Gateway struct {
	parts  []*expr.Expr
	alphas []*expr.Alphabet
	idx    *manager.NameIndex
	shards []*ShardClient

	mu     sync.Mutex
	nextTk manager.Ticket
	grants map[manager.Ticket]grantEntry

	reg     *obs.Registry // nil: metrics disabled
	clk     clock.Clock
	gm      gatewayMetrics
	traces  *traceRing // nil: grant tracing disabled
	traceID atomic.Uint64

	// table is the route table this gateway follows — shared with the
	// fleet when GatewayOptions.RouteTable named one, else private;
	// unfollow detaches it on Close. Route mutations (migration
	// add/retire) go through the table so every follower converges.
	table    *placement.RouteTable
	unfollow func()
}

// gatewayMetrics counts two-phase protocol outcomes (nil handles no-op).
type gatewayMetrics struct {
	reserves        *obs.Counter
	reserveRefusals *obs.Counter
	confirms        *obs.Counter
	confirmFailures *obs.Counter
	aborts          *obs.Counter
	resumes         *obs.Counter
	grantNs         *obs.Histogram
}

func newGatewayMetrics(reg *obs.Registry) gatewayMetrics {
	return gatewayMetrics{
		reserves:        reg.Counter("ix_gateway_reserves_total"),
		reserveRefusals: reg.Counter("ix_gateway_reserve_refusals_total"),
		confirms:        reg.Counter("ix_gateway_confirms_total"),
		confirmFailures: reg.Counter("ix_gateway_confirm_failures_total"),
		aborts:          reg.Counter("ix_gateway_aborts_total"),
		resumes:         reg.Counter("ix_gateway_resumes_total"),
		grantNs:         reg.Histogram("ix_gateway_grant_ns"),
	}
}

// grantEntry records one gateway-level grant and when it was taken, so
// grants abandoned by dead clients can be expired (their shard-side
// reservations are reclaimed by the managers' own timeouts). The action
// rides along so a confirm interrupted by a shard failover can be
// resumed (re-reserved and committed) on the promoted replica.
type grantEntry struct {
	act    expr.Action
	grants []shardGrant
	at     time.Time
	tr     *GrantTrace // nil when tracing is disabled
}

// grantTTL bounds how long an unsettled gateway grant is remembered. It
// comfortably exceeds any sane reservation timeout: by the time it
// fires, every shard has long aborted the underlying reservations.
const grantTTL = 10 * time.Minute

// shardGrant is one shard's reservation within a gateway-level grant.
// gen is the shard client's failover generation at reserve time: if it
// moved by settle time, the ticket may have died with the old primary
// and an unknown-ticket answer means "resume", not "lost".
type shardGrant struct {
	shard  int
	ticket manager.Ticket
	gen    uint64
}

// Partition splits a coupled expression into its shard operands: the
// operands of a top-level coupling, or the expression itself otherwise.
func Partition(e *expr.Expr) []*expr.Expr {
	if e.Op == expr.OpSync {
		return e.Kids
	}
	return []*expr.Expr{e}
}

// GatewayOptions configure a replicated gateway.
type GatewayOptions struct {
	// ReadFromFollowers routes Try probes to follower replicas (see
	// ShardOptions.ReadFromFollowers).
	ReadFromFollowers bool
	// DrainRetryDelay is handed to every shard client (see
	// ShardOptions.DrainRetryDelay).
	DrainRetryDelay time.Duration
	// Metrics, if non-nil, makes the gateway (and its shard clients)
	// report into the registry: two-phase reserve/confirm outcomes, grant
	// latency, and per-shard asks/drain-waits/failovers/heals.
	Metrics *obs.Registry
	// TraceCapacity sizes the completed-grant trace ring. Zero means
	// DefaultTraceCapacity; negative disables grant tracing.
	TraceCapacity int
	// Dialer replaces the TCP transport for every shard connection (see
	// ShardOptions.Dialer). Nil means TCP.
	Dialer func(addr string) (net.Conn, error)
	// Clock injects the time source for grant TTL expiry, latency metrics
	// and trace timestamps, and is handed to every shard client. Nil
	// means the wall clock.
	Clock clock.Clock
	// RouteTable attaches the gateway to a shared control-plane route
	// table (internal/placement): the gateway's shard addresses come from
	// the table (the replicas argument must be nil), every later table
	// change is applied to this gateway before the mutating call returns,
	// and the gateway's own route mutations (migration add/retire) go
	// through the table so the whole fleet converges. The table must
	// route exactly the expression's shard count. Nil means a private
	// table built from the replicas argument.
	RouteTable *placement.RouteTable
}

// NewGateway builds a gateway for e whose i-th coupling operand is served
// by the shard at addrs[i]. Shard connections are dialed lazily, so the
// gateway can be constructed before every shard server is up. The
// routing index is precomputed from the operand alphabets; no per-action
// alphabet scan happens at grant time.
func NewGateway(e *expr.Expr, addrs []string) (*Gateway, error) {
	replicas := make([][]string, len(addrs))
	for i, a := range addrs {
		replicas[i] = []string{a}
	}
	return NewReplicatedGateway(e, replicas, GatewayOptions{})
}

// NewReplicatedGateway builds a gateway whose i-th coupling operand is
// served by the replica set replicas[i] (an ordered endpoint list; see
// NewShardClientSet). On a primary failure the shard client elects and
// promotes the most advanced surviving replica and the gateway resumes
// in-flight two-phase grants idempotently: a confirm answered from the
// replicated dedup window settles without re-executing, an unknown
// ticket after a failover re-reserves and commits on the new primary.
func NewReplicatedGateway(e *expr.Expr, replicas [][]string, opts GatewayOptions) (*Gateway, error) {
	parts := Partition(e)
	if opts.RouteTable == nil {
		t, err := placement.NewRouteTable(replicas)
		if err != nil {
			return nil, err
		}
		opts.RouteTable = t
	} else if replicas != nil {
		// The table is authoritative; a replicas argument is redundant at
		// best and stale at worst, so the attached form takes nil.
		return nil, fmt.Errorf("cluster: pass nil replicas with RouteTable (the table owns the addresses)")
	}
	if got := opts.RouteTable.Shards(); got != len(parts) {
		return nil, fmt.Errorf("cluster: expression has %d shards, route table has %d", len(parts), got)
	}
	g := &Gateway{parts: parts, grants: make(map[manager.Ticket]grantEntry)}
	g.reg = opts.Metrics
	g.clk = clock.Or(opts.Clock)
	g.gm = newGatewayMetrics(opts.Metrics)
	tcap := opts.TraceCapacity
	if tcap == 0 {
		tcap = DefaultTraceCapacity
	}
	g.traces = newTraceRing(tcap) // nil when tcap < 0
	for i, part := range parts {
		g.alphas = append(g.alphas, expr.AlphabetOf(part))
		g.shards = append(g.shards, NewShardClientSet(nil, ShardOptions{
			ReadFromFollowers: opts.ReadFromFollowers,
			DrainRetryDelay:   opts.DrainRetryDelay,
			Metrics:           opts.Metrics,
			Label:             strconv.Itoa(i),
			Dialer:            opts.Dialer,
			Clock:             opts.Clock,
		}))
	}
	g.idx = manager.NewNameIndex(g.alphas)
	// Following the table gives every shard client its endpoint list: the
	// initial full apply lands before Follow returns, and every later
	// change reaches the gateway before the mutating call returns.
	unfollow, err := opts.RouteTable.Follow((*routeApplier)(g))
	if err != nil {
		g.Close()
		return nil, err
	}
	g.table, g.unfollow = opts.RouteTable, unfollow
	return g, nil
}

// RouteTable returns the route table the gateway follows: the shared one
// from GatewayOptions.RouteTable, or its private one. Route changes go
// through it; the gateway has no other route mutator.
func (g *Gateway) RouteTable() *placement.RouteTable { return g.table }

// MetricsRegistry exposes the gateway's obs registry (nil when metrics
// are disabled); the wire server discovers it via manager.MetricsSource.
func (g *Gateway) MetricsRegistry() *obs.Registry { return g.reg }

// newTrace starts a grant trace when tracing is enabled (nil otherwise;
// GrantTrace methods no-op on nil).
func (g *Gateway) newTrace(a expr.Action) *GrantTrace {
	if g.traces == nil {
		return nil
	}
	return &GrantTrace{
		ID:      g.traceID.Add(1),
		Action:  a.String(),
		Start:   g.clk.Now(),
		Outcome: OutcomePending,
	}
}

// finishTrace stamps the outcome and publishes the trace to the ring.
func (g *Gateway) finishTrace(tr *GrantTrace, outcome string) {
	if tr == nil {
		return
	}
	tr.End = g.clk.Now()
	tr.Outcome = outcome
	g.traces.add(tr)
}

// Traces returns the gateway's grant traces: completed grants from the
// ring (oldest first), then still-pending ask-path grants.
func (g *Gateway) Traces() []GrantTrace {
	out := g.traces.list()
	g.mu.Lock()
	for t, e := range g.grants {
		if e.tr != nil {
			tr := e.tr.clone()
			tr.Ticket = t
			out = append(out, tr)
		}
	}
	g.mu.Unlock()
	return out
}

// Shards returns the shard clients (diagnostics and tests).
func (g *Gateway) Shards() []*ShardClient { return g.shards }

// routeApplier is the gateway as its route table's follower
// (placement.Applier). It is unexported so that the table stays the only
// way to change a gateway's routes: a direct update would leave the
// table's row stale, and its next Add or Remove would republish that row.
type routeApplier Gateway

// SetShardAddrs hands shard i's new endpoint list to its shard client.
// Requests in flight are not dropped: the serving connection survives
// when its endpoint stays listed, and otherwise the shard client's
// generation bump routes outstanding two-phase grants through the resume
// path (see ShardClient.SetAddrs). The table never sends an empty row; a
// shard out of range means a table built for a different shard count.
func (a *routeApplier) SetShardAddrs(shard int, addrs []string) error {
	g := (*Gateway)(a)
	if shard < 0 || shard >= len(g.shards) {
		return fmt.Errorf("cluster: shard %d out of range (%d shards)", shard, len(g.shards))
	}
	g.shards[shard].SetAddrs(addrs)
	return nil
}

// Route returns the ascending shard indices whose alphabet contains a.
func (g *Gateway) Route(a expr.Action) []int { return g.idx.Route(a) }

// Ping verifies every shard is reachable (and dials the connections, so
// later grants start warm).
func (g *Gateway) Ping(ctx context.Context) error {
	for i, sc := range g.shards {
		if _, err := sc.Final(ctx); err != nil {
			return fmt.Errorf("cluster: shard %d (%s): %w", i, sc.Addr(), err)
		}
	}
	return nil
}

// askShards runs phase 1: reservations at every involved shard in
// ascending order, rolling back on the first refusal.
func (g *Gateway) askShards(ctx context.Context, a expr.Action, involved []int, tr *GrantTrace) ([]shardGrant, error) {
	grants := make([]shardGrant, 0, len(involved))
	for _, i := range involved {
		start := g.clk.Now()
		t, err := g.shards[i].Ask(ctx, a)
		tr.event(PhaseReserve, i, t, start, g.clk.Since(start), err)
		if err != nil {
			g.gm.reserveRefusals.Inc()
			g.abortGrants(grants, tr)
			return nil, err
		}
		g.gm.reserves.Inc()
		grants = append(grants, shardGrant{shard: i, ticket: t, gen: g.shards[i].Generation()})
	}
	return grants, nil
}

// abortGrants releases reservations after a refusal. Abort errors are
// secondary (the grant already failed); an unreachable shard's
// reservation falls to its manager's reservation timeout, the paper's
// remedy for clients that die inside the critical region.
func (g *Gateway) abortGrants(grants []shardGrant, tr *GrantTrace) {
	ctx, cancel := context.WithTimeout(context.Background(), shardSettleTimeout)
	defer cancel()
	for _, gr := range grants {
		start := g.clk.Now()
		err := g.shards[gr.shard].Abort(ctx, gr.ticket)
		tr.event(PhaseAbort, gr.shard, gr.ticket, start, g.clk.Since(start), err)
	}
}

// confirmGrants runs phase 2: confirm every reservation in grant order.
// A confirm that comes back ErrUnknownTicket after the shard failed over
// is resumed: the reservation died with the old primary without ever
// committing (under sync replication a committed confirm is answered
// from the promoted follower's replicated dedup window instead), so the
// grant is re-reserved and committed atomically on the new primary. The
// resumes run only after every reservation of this grant is settled:
// a resume is a fresh Ask, and taking one while still holding
// higher-numbered reservations would break the global acquisition order
// that keeps concurrent multi-shard grants deadlock-free.
func (g *Gateway) confirmGrants(ctx context.Context, a expr.Action, grants []shardGrant, tr *GrantTrace) error {
	var firstErr error
	var resume []int
	for _, gr := range grants {
		start := g.clk.Now()
		err := g.shards[gr.shard].Confirm(ctx, gr.ticket)
		tr.event(PhaseConfirm, gr.shard, gr.ticket, start, g.clk.Since(start), err)
		if errors.Is(err, manager.ErrUnknownTicket) && g.shards[gr.shard].Generation() != gr.gen {
			resume = append(resume, gr.shard)
			continue
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, shard := range resume {
		g.gm.resumes.Inc()
		start := g.clk.Now()
		err := g.shards[shard].Request(ctx, a)
		tr.event(PhaseResume, shard, 0, start, g.clk.Since(start), err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		g.gm.confirms.Inc()
	} else {
		g.gm.confirmFailures.Inc()
	}
	return firstErr
}

// shardSettleTimeout bounds best-effort aborts after a failed grant and
// subscription setup.
const shardSettleTimeout = 10 * time.Second

// Ask reserves a at every involved shard and returns a gateway ticket
// for the combined reservation.
func (g *Gateway) Ask(ctx context.Context, a expr.Action) (manager.Ticket, error) {
	involved := g.idx.Route(a)
	if len(involved) == 0 {
		return 0, fmt.Errorf("%w: %s (not in any shard's alphabet)", manager.ErrDenied, a)
	}
	tr := g.newTrace(a)
	grants, err := g.askShards(ctx, a, involved, tr)
	if err != nil {
		g.finishTrace(tr, OutcomeRefused)
		return 0, err
	}
	now := g.clk.Now()
	g.mu.Lock()
	// Lazily expire grants abandoned by clients that died between Ask and
	// Confirm/Abort, so the map stays bounded over a gateway's lifetime.
	for k, e := range g.grants {
		if now.Sub(e.at) >= grantTTL {
			g.traces.add(e.tr) // keep the abandoned trace, still "pending"
			delete(g.grants, k)
		}
	}
	g.nextTk++
	t := g.nextTk
	if tr != nil {
		tr.Ticket = t
	}
	g.grants[t] = grantEntry{act: a, grants: grants, at: now, tr: tr}
	g.mu.Unlock()
	return t, nil
}

// takeGrants claims the shard reservations behind a gateway ticket.
func (g *Gateway) takeGrants(t manager.Ticket) (grantEntry, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.grants[t]
	if !ok {
		return grantEntry{}, manager.ErrUnknownTicket
	}
	delete(g.grants, t)
	return e, nil
}

// Confirm settles a gateway-level grant: every shard reservation is
// confirmed (resuming across shard failovers; see confirmGrants).
func (g *Gateway) Confirm(ctx context.Context, t manager.Ticket) error {
	e, err := g.takeGrants(t)
	if err != nil {
		return err
	}
	cerr := g.confirmGrants(ctx, e.act, e.grants, e.tr)
	if cerr == nil {
		g.gm.grantNs.ObserveDuration(g.clk.Since(e.at))
		g.finishTrace(e.tr, OutcomeConfirmed)
	} else {
		g.finishTrace(e.tr, OutcomeFailed)
	}
	return cerr
}

// Abort releases a gateway-level grant without a state transition.
func (g *Gateway) Abort(ctx context.Context, t manager.Ticket) error {
	e, err := g.takeGrants(t)
	if err != nil {
		return err
	}
	var firstErr error
	for _, gr := range e.grants {
		start := g.clk.Now()
		aerr := g.shards[gr.shard].Abort(ctx, gr.ticket)
		e.tr.event(PhaseAbort, gr.shard, gr.ticket, start, g.clk.Since(start), aerr)
		if aerr != nil && firstErr == nil {
			firstErr = aerr
		}
	}
	g.gm.aborts.Inc()
	g.finishTrace(e.tr, OutcomeAborted)
	return firstErr
}

// Request performs the atomic distributed grant. A single-shard action
// takes the fast path — the shard manager's own atomic request, one round
// trip; a multi-shard action runs the full two-phase protocol.
func (g *Gateway) Request(ctx context.Context, a expr.Action) error {
	involved := g.idx.Route(a)
	switch len(involved) {
	case 0:
		return fmt.Errorf("%w: %s (not in any shard's alphabet)", manager.ErrDenied, a)
	case 1:
		return g.shards[involved[0]].Request(ctx, a)
	}
	start := g.clk.Now()
	tr := g.newTrace(a)
	grants, err := g.askShards(ctx, a, involved, tr)
	if err != nil {
		g.finishTrace(tr, OutcomeRefused)
		return err
	}
	err = g.confirmGrants(ctx, a, grants, tr)
	if err == nil {
		g.gm.grantNs.ObserveDuration(g.clk.Since(start))
		g.finishTrace(tr, OutcomeConfirmed)
	} else {
		g.finishTrace(tr, OutcomeFailed)
	}
	return err
}

// RequestMany performs a burst of atomic distributed grants and reports
// one error per action (nil = confirmed). Single-shard actions — the
// common case under a well-partitioned coupling — are grouped by
// destination shard and shipped as one framed multi-op message per shard
// per round, with the per-shard frames in flight concurrently; a shard
// running with group commit then settles the whole frame with one fsync.
// Multi-shard actions run the ordinary two-phase grant one by one, after
// the grouped frames, so a burst's cost is one round per shard plus one
// two-phase round per cross-shard action — not one round trip per action.
//
// Actions of the same burst are applied in an arbitrary serial order
// relative to each other (they came from concurrent clients); each is
// individually admitted against the state the earlier ones produced,
// exactly as if the clients had raced their individual Requests.
func (g *Gateway) RequestMany(ctx context.Context, actions []expr.Action) []error {
	errs := make([]error, len(actions))
	perShard := make(map[int][]int) // shard → indices of its single-shard actions
	var multi []int
	for i, a := range actions {
		involved := g.idx.Route(a)
		switch len(involved) {
		case 0:
			errs[i] = fmt.Errorf("%w: %s (not in any shard's alphabet)", manager.ErrDenied, a)
		case 1:
			perShard[involved[0]] = append(perShard[involved[0]], i)
		default:
			multi = append(multi, i)
		}
	}
	var wg sync.WaitGroup
	for shard, idxs := range perShard {
		wg.Add(1)
		go func(shard int, idxs []int) {
			defer wg.Done()
			burst := make([]expr.Action, len(idxs))
			for j, i := range idxs {
				burst[j] = actions[i]
			}
			for j, err := range g.shards[shard].RequestMany(ctx, burst) {
				errs[idxs[j]] = err
			}
		}(shard, idxs)
	}
	wg.Wait()
	for _, i := range multi {
		errs[i] = g.Request(ctx, actions[i])
	}
	return errs
}

// Try reports whether every involved shard currently permits a. The
// shards are probed concurrently.
func (g *Gateway) Try(ctx context.Context, a expr.Action) (bool, error) {
	involved := g.idx.Route(a)
	if len(involved) == 0 {
		return false, nil
	}
	oks := make([]bool, len(involved))
	errs := make([]error, len(involved))
	var wg sync.WaitGroup
	for j, i := range involved {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			oks[j], errs[j] = g.shards[i].Try(ctx, a)
		}(j, i)
	}
	wg.Wait()
	for j := range involved {
		if errs[j] != nil {
			return false, errs[j]
		}
		if !oks[j] {
			return false, nil
		}
	}
	return true, nil
}

// Final reports whether every shard's confirmed word is complete.
func (g *Gateway) Final(ctx context.Context) (bool, error) {
	for _, sc := range g.shards {
		fin, err := sc.Final(ctx)
		if err != nil {
			return false, err
		}
		if !fin {
			return false, nil
		}
	}
	return true, nil
}

// Subscribe aggregates per-shard subscriptions for a: the combined
// status is the conjunction of the involved shards' statuses, and the
// returned channel informs on combined flips. The per-shard streams are
// self-healing: when a shard's primary dies (or the shard migrates), the
// shard client resubscribes through its failover election and the fresh
// subscription's initial inform resynchronizes that shard's slot in the
// conjunction — the subscriber keeps receiving correct informs without
// resubscribing. The channel closes only when the subscription is
// canceled or the gateway is closed. Satisfies manager.Coordinator.
func (g *Gateway) Subscribe(a expr.Action) (<-chan manager.Inform, func(), error) {
	involved := g.idx.Route(a)
	// The context bounds only the subscription setup round trips; the
	// subscriptions themselves live until canceled (ShardClient.Subscribe
	// binds their lifetime to the cancel function, not to this context).
	ctx, cancelCtx := context.WithTimeout(context.Background(), shardSettleTimeout)
	defer cancelCtx()

	parts := make([]<-chan manager.Inform, 0, len(involved))
	cancels := make([]func(), 0, len(involved))
	cancelAll := func() {
		for _, c := range cancels {
			c()
		}
	}
	for _, i := range involved {
		ch, cancel, err := g.shards[i].Subscribe(ctx, a)
		if err != nil {
			cancelAll()
			return nil, nil, err
		}
		parts = append(parts, ch)
		cancels = append(cancels, cancel)
	}
	return manager.Conjoin(a, parts), cancelAll, nil
}

// Close releases all shard connections (detaching from the route
// table first, so no further fan-out reaches a closed gateway).
// Outstanding gateway tickets become unknown; their shard reservations
// fall to the managers' reservation timeouts.
func (g *Gateway) Close() error {
	if g.unfollow != nil {
		g.unfollow()
		g.unfollow = nil
	}
	var firstErr error
	for _, sc := range g.shards {
		if err := sc.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
