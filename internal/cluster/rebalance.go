package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/manager"
	"repro/internal/placement"
)

// Live shard migration. A shard born on one server set is not pinned to
// it: the Rebalancer moves a shard's primary onto a fresh server with
// zero lost acked actions, composing the elastic-membership primitives
// of internal/manager (attach/resync, drain, promote, epoch fencing)
// in the order recoverable-request systems prescribe:
//
//  1. attach — the target joins the primary's replication fan-out and
//     receives a full state snapshot over the existing stream;
//  2. catch up — repeated resyncs chase the live commit stream until
//     the target is within one drain window of the primary;
//  3. drain — the source refuses new asks with ErrDraining (a retryable
//     sentinel the shard clients wait out) while in-flight tickets and
//     queued group commits settle;
//  4. final sync — with the source quiescent, one more snapshot makes
//     the target byte-identical;
//  5. promote — the target becomes primary of a fresh epoch, and an
//     empty frame of that epoch fences the source (the same epoch rule
//     that already governs failover: the source demotes itself and
//     refuses further writes);
//  6. rewire — the new primary attaches the shard's surviving
//     followers, so sync acks and gap healing keep working;
//  7. retire — the source leaves the route table; the generation bump
//     routes any still-settling two-phase grants through the gateway's
//     resume path instead of a retired server.
//
// Failure at any step before promotion resumes the source, so an
// aborted migration never wedges the shard.

// Rebalancer drives live migrations against a gateway's shards. It is
// also the control plane's data-plane adapter: it satisfies
// placement.LoadSource (Loads) and placement.Mover (Move), so a
// placement.Controller autopilots migrations through it.
type Rebalancer struct {
	gw *Gateway
	// StatsTimeout bounds each shard's readout within Stats/Loads. Zero
	// means defaultStatsTimeout.
	StatsTimeout time.Duration
}

// Rebalancer returns a migration driver for the gateway's shards.
func (g *Gateway) Rebalancer() *Rebalancer { return &Rebalancer{gw: g} }

// MigrateOptions tune one migration.
type MigrateOptions struct {
	// Retire drops the source from the shard's route table after the
	// promotion (the operator will stop the server). Off, the source
	// stays listed as a follower of the new primary — the mode chaos
	// schedules use to ping-pong a primary inside a fixed set.
	Retire bool
	// CatchupRounds bounds the pre-drain resync chase (step 2); the
	// drain closes whatever gap remains. 0 means a small default.
	CatchupRounds int
}

// defaultCatchupRounds bounds the live catch-up chase before draining.
const defaultCatchupRounds = 8

// Topology reports every shard's endpoint list alongside the serving
// node's view of itself (role, epoch, steps, streams, drain state).
type ShardTopology struct {
	Shard   int
	Addrs   []string
	Primary manager.TopologyInfo
}

// Topology collects the current route table and each shard's primary
// topology (best effort: an unreachable shard reports its error).
func (r *Rebalancer) Topology(ctx context.Context) ([]ShardTopology, error) {
	out := make([]ShardTopology, len(r.gw.shards))
	var firstErr error
	for i, sc := range r.gw.shards {
		out[i] = ShardTopology{Shard: i, Addrs: sc.Addrs()}
		cl, _, err := sc.acquire(ctx)
		if err == nil {
			var ti manager.TopologyInfo
			if ti, err = cl.Topology(ctx); err == nil {
				out[i].Primary = ti
			}
			sc.release(cl)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: shard %d topology: %w", i, err)
		}
	}
	return out, firstErr
}

// observePhase records one migration step's duration into the gateway's
// metrics registry as ix_migrate_phase_ns{phase="..."} (no-op without a
// registry — obs metrics are nil-safe).
func (r *Rebalancer) observePhase(name string, start time.Time) {
	r.gw.reg.Histogram(`ix_migrate_phase_ns{phase="` + name + `"}`).ObserveDuration(r.gw.clk.Since(start))
}

// ShardStats pairs a shard's route info with its serving primary's stats
// snapshot — the per-shard load view (asks/s, queue depth, memo hit rate)
// a rebalancing controller reads before picking a migration.
type ShardStats struct {
	Shard   int                   `json:"shard"`
	Addrs   []string              `json:"addrs"`
	Primary string                `json:"primary,omitempty"`
	Stats   manager.StatsSnapshot `json:"stats"`
	Err     string                `json:"err,omitempty"`
}

// defaultStatsTimeout bounds one shard's readout within Stats. The
// autopilot polls Stats on a cadence, so a single unreachable shard must
// cost one bounded timeout — not stall the whole fleet's readout.
const defaultStatsTimeout = 2 * time.Second

// Stats collects every shard primary's stats snapshot, all shards
// concurrently with a bounded per-shard timeout (best effort: an
// unreachable shard reports its error in its slot and the lowest-shard
// failure is returned alongside the partial result).
func (r *Rebalancer) Stats(ctx context.Context) ([]ShardStats, error) {
	timeout := r.StatsTimeout
	if timeout <= 0 {
		timeout = defaultStatsTimeout
	}
	out := make([]ShardStats, len(r.gw.shards))
	var wg sync.WaitGroup
	for i, sc := range r.gw.shards {
		wg.Add(1)
		go func(i int, sc *ShardClient) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			out[i] = ShardStats{Shard: i, Addrs: sc.Addrs()}
			cl, addr, err := sc.acquire(sctx)
			if err == nil {
				defer sc.release(cl)
				out[i].Primary = addr
				var st manager.StatsSnapshot
				if st, err = cl.Stats(sctx); err == nil {
					out[i].Stats = st
				}
			}
			if err != nil {
				out[i].Err = err.Error()
			}
		}(i, sc)
	}
	wg.Wait()
	var firstErr error
	for i := range out {
		if out[i].Err != "" {
			firstErr = fmt.Errorf("cluster: shard %d stats: %s", i, out[i].Err)
			break
		}
	}
	return out, firstErr
}

// Loads satisfies placement.LoadSource: the Stats readout reduced to the
// control plane's three signals (plus identity), errors carried per
// shard so the controller can skip unreadable shards without losing the
// rest of the fleet.
func (r *Rebalancer) Loads(ctx context.Context) ([]placement.ShardLoad, error) {
	stats, err := r.Stats(ctx)
	out := make([]placement.ShardLoad, len(stats))
	for i, s := range stats {
		out[i] = placement.ShardLoad{
			Shard:       s.Shard,
			Primary:     s.Primary,
			AskRate:     s.Stats.AskRate,
			QueueDepth:  s.Stats.QueueDepth,
			MemoHitRate: s.Stats.MemoHitRate,
			Steps:       uint64(s.Stats.Steps),
			Err:         s.Err,
		}
	}
	return out, err
}

// Move satisfies placement.Mover: one live migration, retiring the
// source when asked.
func (r *Rebalancer) Move(ctx context.Context, shard int, target string, retire bool) error {
	return r.MigrateShard(ctx, shard, target, MigrateOptions{Retire: retire})
}

// MigrateShard moves shard's primary onto the server at target (which
// must already be running as an empty or stale follower). On success the
// target serves the shard as primary of a fresh epoch, the source is
// fenced, and — with opts.Retire — removed from the route table. Clients
// keep working throughout: asks hitting the drain window are waited out
// by the shard clients, and no acked action is lost (the promotion only
// happens after the drained source's final snapshot is on the target).
func (r *Rebalancer) MigrateShard(ctx context.Context, shard int, target string, opts MigrateOptions) error {
	if shard < 0 || shard >= len(r.gw.shards) {
		return fmt.Errorf("cluster: shard %d out of range (%d shards)", shard, len(r.gw.shards))
	}
	sc := r.gw.shards[shard]
	// One migration per shard at a time — across every Rebalancer over
	// this gateway, and across the whole gateway fleet when a shared
	// route table is attached: two concurrent promotions from the same
	// epoch would mint two primaries of epoch E+1 — a split brain whose
	// loser's acked writes die with its timeline.
	unlock := r.gw.migrateLock(shard)
	defer unlock()

	// Step 0: the target joins the route table up front. Safe mid-flight:
	// a follower never wins the election while the live primary holds the
	// highest epoch, and after the promotion this very entry is what the
	// failover election repoints clients to. Through the shared table the
	// entry reaches every gateway of the fleet.
	if err := r.gw.routeAdd(shard, target); err != nil {
		return fmt.Errorf("cluster: migrate shard %d: route %s: %w", shard, target, err)
	}
	// The source connection is held in flight for the whole migration, so
	// the retire in step 7 closes it only once the migration is done.
	cl, source, err := sc.acquire(ctx)
	if err != nil {
		return fmt.Errorf("cluster: migrate shard %d: no primary: %w", shard, err)
	}
	defer sc.release(cl)
	if source == target {
		return nil // already serving there
	}

	// Steps 1+2: attach and chase the live stream.
	rounds := opts.CatchupRounds
	if rounds <= 0 {
		rounds = defaultCatchupRounds
	}
	var tgt manager.ReplStatus
	phaseStart := r.gw.clk.Now()
	for i := 0; ; i++ {
		if tgt, err = cl.Migrate(ctx, target); err != nil {
			return fmt.Errorf("cluster: migrate shard %d: attach %s: %w", shard, target, err)
		}
		if i == 0 {
			r.observePhase("attach", phaseStart)
			phaseStart = r.gw.clk.Now()
		}
		src, err := cl.Role(ctx)
		if err != nil {
			return fmt.Errorf("cluster: migrate shard %d: source role: %w", shard, err)
		}
		if tgt.Steps >= src.Steps || i >= rounds {
			break // caught up (or close enough — the drain freezes the rest)
		}
	}
	r.observePhase("catchup", phaseStart)

	// Step 3: drain the source. From here on a failure must resume it,
	// or the shard stays wedged refusing asks — including a failure of
	// the drain call itself: Drain leaves the manager draining when its
	// wait times out, and the server-side drain may even complete after
	// the RPC already failed.
	fail := func(err error) error {
		rctx, cancel := context.WithTimeout(context.Background(), shardSettleTimeout)
		defer cancel()
		if rerr := cl.Resume(rctx); rerr != nil {
			return fmt.Errorf("%w (and resuming %s failed: %v)", err, source, rerr)
		}
		return err
	}
	phaseStart = r.gw.clk.Now()
	if err := cl.Drain(ctx); err != nil {
		return fail(fmt.Errorf("cluster: migrate shard %d: drain %s: %w", shard, source, err))
	}
	r.observePhase("drain", phaseStart)

	// Step 4: final sync against the quiescent source.
	phaseStart = r.gw.clk.Now()
	src, err := cl.Role(ctx)
	if err != nil {
		return fail(fmt.Errorf("cluster: migrate shard %d: source role: %w", shard, err))
	}
	if tgt, err = cl.Migrate(ctx, target); err != nil {
		return fail(fmt.Errorf("cluster: migrate shard %d: final sync: %w", shard, err))
	}
	if tgt.Steps < src.Steps {
		return fail(fmt.Errorf("cluster: migrate shard %d: target at %d steps, source at %d after drain", shard, tgt.Steps, src.Steps))
	}
	r.observePhase("final_sync", phaseStart)

	// Step 5: promote the target and fence the source with an empty frame
	// of the new epoch. The fence's reply position check may report
	// ErrReplGap — irrelevant: the demotion happens in the epoch adoption
	// that precedes it, and ErrStaleEpoch means someone with an even
	// higher epoch fenced the source already.
	phaseStart = r.gw.clk.Now()
	tcl, err := manager.DialWith(target, manager.DialOptions{Dialer: r.gw.shards[shard].opts.Dialer})
	if err != nil {
		return fail(fmt.Errorf("cluster: migrate shard %d: dial target: %w", shard, err))
	}
	defer tcl.Close()
	epoch, err := tcl.Promote(ctx)
	if err != nil {
		return fail(fmt.Errorf("cluster: migrate shard %d: promote %s: %w", shard, target, err))
	}
	if _, err := cl.Replicate(ctx, manager.ReplFrame{Epoch: epoch}); err != nil &&
		!errors.Is(err, manager.ErrReplGap) && !errors.Is(err, manager.ErrStaleEpoch) {
		// The target is promoted either way; an unreachable source is
		// fenced by the epoch rule the moment anything of the new epoch
		// reaches it. Report, but do not resume — resuming a node the new
		// primary cannot fence would invite a split brain.
		return fmt.Errorf("cluster: migrate shard %d: fence %s: %w", shard, source, err)
	}
	r.observePhase("promote", phaseStart)

	// Step 6: the new primary takes over the shard's replication fan-out:
	// every surviving endpoint except itself — and except the source when
	// it is being retired — becomes a follower stream (attach is also
	// what heals a stale follower, via its snapshot resync).
	phaseStart = r.gw.clk.Now()
	for _, addr := range sc.Addrs() {
		if addr == target || (addr == source && opts.Retire) {
			continue
		}
		if _, err := tcl.Migrate(ctx, addr); err != nil {
			return fmt.Errorf("cluster: migrate shard %d: rewire %s under %s: %w", shard, addr, target, err)
		}
	}
	r.observePhase("rewire", phaseStart)

	// Step 7: route-table update. Retiring bumps the generation when the
	// serving connection pointed at the source, which routes still-open
	// two-phase grants through the gateway's resume path.
	if opts.Retire {
		phaseStart = r.gw.clk.Now()
		if err := r.gw.routeRemove(shard, source); err != nil {
			return fmt.Errorf("cluster: migrate shard %d: unroute %s: %w", shard, source, err)
		}
		if err := tcl.Retire(ctx, source); err != nil && !errors.Is(err, manager.ErrClosed) {
			// The new primary never streamed to the source; detach is a
			// no-op there, but surface real failures.
			return fmt.Errorf("cluster: migrate shard %d: retire %s: %w", shard, source, err)
		}
		r.observePhase("retire", phaseStart)
	}
	return nil
}
