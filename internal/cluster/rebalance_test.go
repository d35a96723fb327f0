package cluster

import (
	"context"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/parse"
)

// Live-migration tests. Synchronization is protocol-driven throughout:
// Drain returns only when the source is quiescent, MigrateShard returns
// only when the target is promoted and the route table updated, and the
// one mid-flight test polls the manager's own Draining() state as its
// readiness signal — never a bare sleep standing in for an event.

// newFollowerNode starts a fresh empty follower server for e (the server
// a migration moves a shard onto) and returns it with its address.
func newFollowerNode(t *testing.T, src string) (*shard, string) {
	t.Helper()
	sh := &shard{t: t, e: parse.MustParse(src), opts: manager.Options{
		Follower:     true,
		SyncReplicas: true,
	}}
	sh.start()
	t.Cleanup(func() {
		if sh.srv != nil {
			sh.stop()
		}
	})
	return sh, sh.addr
}

// TestMigrateShardToFreshServer: the runbook in miniature — a shard
// serving live history moves onto a brand-new server with zero lost
// acked actions; the source ends fenced and off the route table.
func TestMigrateShardToFreshServer(t *testing.T) {
	const src = "(a - b)*"
	gw, shards := startCluster(t, src, false, 0)
	for _, name := range []string{"a", "b", "a"} {
		if err := gw.Request(bg, act(name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	fresh, target := newFollowerNode(t, src)
	reb := gw.Rebalancer()
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := reb.MigrateShard(ctx, 0, target, MigrateOptions{Retire: true}); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// The target serves the shard as primary of a fresh epoch and holds
	// every acked action.
	st := fresh.m.Status()
	if st.Role != manager.RolePrimary || st.Epoch == 0 {
		t.Fatalf("target not promoted: %+v", st)
	}
	if st.Steps != 3 {
		t.Fatalf("target steps: got %d want 3 (lost acked actions?)", st.Steps)
	}
	// The source is fenced (demoted by the new epoch) and retired from
	// the route table.
	if got := shards[0].m.Status(); got.Role != manager.RoleFollower {
		t.Fatalf("source not fenced: %+v", got)
	}
	if addrs := gw.Shards()[0].Addrs(); len(addrs) != 1 || addrs[0] != target {
		t.Fatalf("route table after retire: %v", addrs)
	}
	// Traffic continues against the new primary — even after the old
	// server is stopped for good.
	shards[0].stop()
	if err := gw.Request(bg, act("b")); err != nil {
		t.Fatalf("request after migration: %v", err)
	}
	if got := fresh.m.Steps(); got != 4 {
		t.Fatalf("target steps after new traffic: got %d want 4", got)
	}
}

// TestMigrateShardUnderLiveLoad: concurrent clients hammer the gateway
// while a shard migrates; every request must succeed (drain windows are
// waited out, the route repoints mid-flight) and the step accounting
// must balance exactly — zero lost, zero duplicated.
func TestMigrateShardUnderLiveLoad(t *testing.T) {
	const src = "(a1 | b1)* @ (a2 | b2)*"
	gw, shards := startCluster(t, src, false, 0)
	fresh, target := newFollowerNode(t, "(a1 | b1)*")

	const workers, each = 4, 25
	const burstWorkers, bursts, burstLen = 2, 10, 5
	var wg sync.WaitGroup
	errc := make(chan error, workers+burstWorkers)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"a1", "b1", "a2", "b2"}[w%4]
			<-start
			for j := 0; j < each; j++ {
				ctx, cancel := context.WithTimeout(bg, 10*time.Second)
				err := gw.Request(ctx, act(name))
				cancel()
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// Pipelined bursts ride through the migration too: a frame refused
	// whole by the draining source is waited out, never surfaced.
	for w := 0; w < burstWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := []string{"a1", "a2"}[w%2]
			<-start
			for j := 0; j < bursts; j++ {
				burst := make([]expr.Action, burstLen)
				for k := range burst {
					burst[k] = act(name)
				}
				ctx, cancel := context.WithTimeout(bg, 10*time.Second)
				errs := gw.RequestMany(ctx, burst)
				cancel()
				for _, err := range errs {
					if err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	close(start)
	ctx, cancel := context.WithTimeout(bg, 15*time.Second)
	defer cancel()
	if err := gw.Rebalancer().MigrateShard(ctx, 0, target, MigrateOptions{Retire: true}); err != nil {
		t.Fatalf("migrate under load: %v", err)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatalf("client-visible error during migration: %v", err)
	default:
	}
	// Shard 0's history is split across source (pre-drain) and target
	// (everything — the final sync carried the source history over);
	// the target must hold every acked shard-0 action.
	perShard := workers/2*each + bursts*burstLen
	if got := fresh.m.Steps(); got != perShard {
		t.Fatalf("migrated shard steps: got %d want %d", got, perShard)
	}
	if got := shards[1].m.Steps(); got != perShard {
		t.Fatalf("untouched shard steps: got %d want %d", got, perShard)
	}
}

// TestMigrateWithInflightTwoPhaseGrant: a reservation held across both
// shards when the migration starts parks the drain; confirming the
// ticket settles it (in-flight tickets settle through a drain by
// contract), the drain completes, and the migration finishes with the
// confirmed action on the target.
func TestMigrateWithInflightTwoPhaseGrant(t *testing.T) {
	gw, shards := startCluster(t, "(a - b)* @ (b - c)*", false, 0)
	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	tk, err := gw.Ask(bg, act("b"))
	if err != nil {
		t.Fatal(err)
	}

	fresh, target := newFollowerNode(t, "(a - b)*")
	migrated := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(bg, 15*time.Second)
		defer cancel()
		migrated <- gw.Rebalancer().MigrateShard(ctx, 0, target, MigrateOptions{Retire: true})
	}()
	// Readiness signal: the source reports draining — the migration is
	// parked waiting for our reservation to settle.
	deadline := time.Now().Add(10 * time.Second)
	for !shards[0].m.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("migration never started draining the source")
		}
		time.Sleep(time.Millisecond)
	}
	// Settle the in-flight ticket: allowed while draining, unblocks it.
	if err := gw.Confirm(bg, tk); err != nil {
		t.Fatalf("confirm during drain: %v", err)
	}
	if err := <-migrated; err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if got := fresh.m.Steps(); got != 2 {
		t.Fatalf("target steps: got %d want 2 (a, b — the drained confirm must migrate)", got)
	}
	// The round completes against the migrated shard.
	if err := gw.Request(bg, act("c")); err != nil {
		t.Fatal(err)
	}
	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateUnreachableTargetFailsCleanly: a migration to a dead target
// aborts before touching the source — the shard keeps serving.
func TestMigrateUnreachableTargetFailsCleanly(t *testing.T) {
	gw, shards := startCluster(t, "(a - b)*", false, 0)
	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	// A bound-then-closed listener yields an address nobody serves.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := gw.Rebalancer().MigrateShard(ctx, 0, dead, MigrateOptions{Retire: true}); err == nil {
		t.Fatal("migration to a dead target should fail")
	}
	if shards[0].m.Draining() {
		t.Fatal("failed migration left the source draining")
	}
	// The dead target must not linger in the route table as a candidate
	// the next election could stall on — but even if listed, the shard
	// keeps serving.
	if err := gw.Request(bg, act("b")); err != nil {
		t.Fatalf("request after failed migration: %v", err)
	}
}

// TestShardClientRouteTableUpdate: a route-table change keeps the
// serving connection when its endpoint survives the update (no generation
// bump, no dropped requests) and invalidates + bumps the generation when
// it does not. The table refuses to retire a shard's last endpoint.
func TestShardClientRouteTableUpdate(t *testing.T) {
	rs := newReplSet(t, parse.MustParse("(a | b)*"), 2, nil)
	gw, err := NewReplicatedGateway(parse.MustParse("(a | b)*"), [][]string{rs.addrs}, GatewayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	table, sc := gw.RouteTable(), gw.Shards()[0]

	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	gen := sc.Generation()
	// Adding an endpoint keeps the connection and the generation.
	if err := table.Add(0, "127.0.0.1:1"); err != nil { // never dialed: the primary conn is live
		t.Fatal(err)
	}
	if got := sc.Generation(); got != gen {
		t.Fatalf("generation bumped by a pure add: %d -> %d", gen, got)
	}
	if err := gw.Request(bg, act("b")); err != nil {
		t.Fatalf("request after add: %v", err)
	}
	// Removing the serving endpoint invalidates and bumps.
	if err := table.Remove(0, rs.addrs[0]); err != nil {
		t.Fatal(err)
	}
	if got := sc.Generation(); got != gen+1 {
		t.Fatalf("generation after removing the serving endpoint: got %d want %d", got, gen+1)
	}
	// The next op re-elects among the survivors (the replica, promoted).
	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatalf("request after remove: %v", err)
	}
	if st := rs.ms[1].Status(); st.Role != manager.RolePrimary {
		t.Fatalf("surviving endpoint not elected: %+v", st)
	}
	// The last endpoint cannot be removed.
	if err := table.Remove(0, rs.addrs[1]); err != nil {
		t.Fatal(err)
	}
	if err := table.Remove(0, "127.0.0.1:1"); err == nil {
		t.Fatal("removing the last endpoint should fail")
	}
	if got := sc.Addrs(); len(got) != 1 || got[0] != "127.0.0.1:1" {
		t.Fatalf("route after refused removal: %v", got)
	}
}

// TestSubscriptionSurvivesMigration: a subscription opened before a
// shard migrates keeps delivering after the source is retired and
// stopped — the healing resubscription follows the route table to the
// new primary.
func TestSubscriptionSurvivesMigration(t *testing.T) {
	gw, shards := startCluster(t, "(a - b)* @ (b - c)*", false, 0)
	fresh, target := newFollowerNode(t, "(a - b)*")

	ch, cancel, err := gw.Subscribe(act("b"))
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Combined false (shard 0 wants a first) — the value a frozen slot
	// would be stuck at.
	waitInform(t, ch, false)

	ctx, cancelM := context.WithTimeout(bg, 10*time.Second)
	defer cancelM()
	if err := gw.Rebalancer().MigrateShard(ctx, 0, target, MigrateOptions{Retire: true}); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// Retire the source server for real: the old subscription stream dies
	// here and must heal onto the migrated shard.
	shards[0].stop()

	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatalf("request after migration: %v", err)
	}
	waitInform(t, ch, true) // only a healed stream on the target flips this
	if err := gw.Request(bg, act("b")); err != nil {
		t.Fatal(err)
	}
	waitInform(t, ch, false)
	if got := fresh.m.Steps(); got != 2 {
		t.Fatalf("target steps: got %d want 2", got)
	}
}

// TestRebalancerTopology reports the route table and primary identity.
func TestRebalancerTopology(t *testing.T) {
	gw, _ := startCluster(t, "(a - b)* @ (b - c)*", false, 0)
	tops, err := gw.Rebalancer().Topology(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != 2 {
		t.Fatalf("topology shards: %d", len(tops))
	}
	for i, top := range tops {
		if top.Shard != i || len(top.Addrs) != 1 {
			t.Fatalf("shard %d topology: %+v", i, top)
		}
		if top.Primary.Role != manager.RolePrimary || top.Primary.Draining {
			t.Fatalf("shard %d primary: %+v", i, top.Primary)
		}
	}
}

// TestGatewaySetShardAddrs: a route update made through the gateway's
// table (its only route mutator) reaches the shard client, after the
// table's bounds checks, and survives the table's next Add.
func TestGatewaySetShardAddrs(t *testing.T) {
	gw, shards := startCluster(t, "(a - b)* @ (b - c)*", false, 0)
	tb := gw.RouteTable()
	if err := tb.Set(7, []string{"x"}); err == nil {
		t.Fatal("out-of-range shard should be rejected")
	}
	if err := tb.Set(0, nil); err == nil {
		t.Fatal("empty endpoint list should be rejected")
	}
	// A superset update keeps the shard serving (same endpoint listed).
	if err := tb.Set(0, []string{shards[0].addr, "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Add(0, "127.0.0.1:2"); err != nil {
		t.Fatal(err)
	}
	want := []string{shards[0].addr, "127.0.0.1:1", "127.0.0.1:2"}
	if got := gw.Shards()[0].Addrs(); !slices.Equal(got, want) {
		t.Fatalf("shard 0 endpoints: got %v want %v", got, want)
	}
	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatalf("request after route update: %v", err)
	}
}

// TestGatewayFinal: the aggregated completeness probe (every shard's
// word must be complete).
func TestGatewayFinal(t *testing.T) {
	gw, _ := startCluster(t, "(a - b)* @ (b - c)*", false, 0)
	if fin, err := gw.Final(bg); err != nil || !fin {
		t.Fatalf("empty word should be complete on both shards: %v %v", fin, err)
	}
	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	if fin, err := gw.Final(bg); err != nil || fin {
		t.Fatalf("mid-round word should be incomplete: %v %v", fin, err)
	}
	for _, name := range []string{"b", "c"} {
		if err := gw.Request(bg, act(name)); err != nil {
			t.Fatal(err)
		}
	}
	if fin, err := gw.Final(bg); err != nil || !fin {
		t.Fatalf("full round should be complete: %v %v", fin, err)
	}
}

// TestSubscriptionEndsOnClientClose: closing the shard client ends its
// self-healing subscriptions — the channel closes instead of redialing a
// retired shard forever.
func TestSubscriptionEndsOnClientClose(t *testing.T) {
	sh := &shard{t: t, e: parse.MustParse("(a - b)*"), opts: manager.Options{}}
	sh.start()
	t.Cleanup(sh.stop)
	sc := NewShardClient(sh.addr)

	ch, cancel, err := sc.Subscribe(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Initial inform arrives.
	select {
	case inf := <-ch:
		if !inf.Permissible {
			t.Fatalf("a should be permissible initially: %+v", inf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("initial inform timed out")
	}
	// Kill the server: the healing loop starts retrying. Closing the
	// client must end it — the channel closes.
	sh.stop()
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return // closed, as required
			}
		case <-deadline:
			t.Fatal("subscription channel did not close after client close")
		}
	}
}
