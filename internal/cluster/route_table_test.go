package cluster

import (
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/parse"
	"repro/internal/placement"
)

// Multi-gateway serving tier tests: N stateless gateways sharing one
// placement.RouteTable must all observe every topology change — a
// migration driven through any one of them repoints the whole fleet.

// startTableFleet brings up one shard server per coupling operand, a
// shared route table over their addresses, and n gateways following it.
func startTableFleet(t *testing.T, src string, n int) ([]*Gateway, []*shard, *placement.RouteTable) {
	t.Helper()
	e := parse.MustParse(src)
	parts := Partition(e)
	shards := make([]*shard, len(parts))
	rows := make([][]string, len(parts))
	for i, part := range parts {
		shards[i] = &shard{t: t, e: part, opts: manager.Options{ReservationTimeout: 2 * time.Second}}
		shards[i].start()
		rows[i] = []string{shards[i].addr}
	}
	table := placement.MustRouteTable(rows)
	gws := make([]*Gateway, n)
	for i := range gws {
		gw, err := NewReplicatedGateway(e, nil, GatewayOptions{RouteTable: table})
		if err != nil {
			t.Fatal(err)
		}
		gws[i] = gw
	}
	t.Cleanup(func() {
		for _, gw := range gws {
			gw.Close()
		}
		for _, sh := range shards {
			sh.stop()
		}
	})
	return gws, shards, table
}

// TestMultiGatewaySharedTableConvergence: a migration driven through one
// gateway's Rebalancer repoints every gateway of the fleet; a gateway
// closed mid-fleet detaches cleanly and the rest keep converging.
func TestMultiGatewaySharedTableConvergence(t *testing.T) {
	const src = "(a - b)*"
	gws, shards, table := startTableFleet(t, src, 3)

	// All three gateways serve from the shared table.
	for i, gw := range gws {
		if gw.RouteTable() != table {
			t.Fatalf("gateway %d not attached", i)
		}
		if err := gw.Request(bg, act([]string{"a", "b", "a"}[i])); err != nil {
			t.Fatalf("gateway %d request: %v", i, err)
		}
	}

	// Migrate the shard through gateway 0; retire the source.
	fresh, target := newFollowerNode(t, src)
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := gws[0].Rebalancer().MigrateShard(ctx, 0, target, MigrateOptions{Retire: true}); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// The route change reached every gateway before MigrateShard returned
	// — that is the synchronous fan-out contract, so no polling here.
	for i, gw := range gws {
		if addrs := gw.Shards()[0].Addrs(); len(addrs) != 1 || addrs[0] != target {
			t.Fatalf("gateway %d route after migrate: %v, want [%s]", i, addrs, target)
		}
	}
	if addrs, _ := table.Addrs(0); len(addrs) != 1 || addrs[0] != target {
		t.Fatalf("table route after migrate: %v", addrs)
	}

	// The source is gone for good: every gateway keeps serving.
	shards[0].stop()
	for i, gw := range gws {
		if err := gw.Request(bg, act([]string{"b", "a", "b"}[i])); err != nil {
			t.Fatalf("gateway %d request after migrate: %v", i, err)
		}
	}
	if got := fresh.m.Steps(); got != 6 {
		t.Fatalf("target steps: got %d want 6 (lost acked actions?)", got)
	}

	// A closed gateway detaches; later table changes must not reach it
	// (Set would otherwise touch its closed shard clients) and the rest
	// of the fleet still converges.
	gws[2].Close()
	second, target2 := newFollowerNode(t, src)
	_ = second
	if err := table.Add(0, target2); err != nil {
		t.Fatal(err)
	}
	for i, gw := range gws[:2] {
		if addrs := gw.Shards()[0].Addrs(); len(addrs) != 2 || addrs[1] != target2 {
			t.Fatalf("gateway %d route after add: %v", i, addrs)
		}
	}
	if addrs := gws[2].Shards()[0].Addrs(); len(addrs) != 1 {
		t.Fatalf("closed gateway received fan-out: %v", addrs)
	}
}

// TestGatewayRouteTableValidation: the attached form rejects a shard
// count mismatch and a redundant replicas argument.
func TestGatewayRouteTableValidation(t *testing.T) {
	e := parse.MustParse("(a - b)* @ (b - c)*")
	if _, err := NewReplicatedGateway(e, nil, GatewayOptions{
		RouteTable: placement.MustRouteTable([][]string{{"x"}}),
	}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	table := placement.MustRouteTable([][]string{{"x"}, {"y"}})
	if _, err := NewReplicatedGateway(e, [][]string{{"x"}, {"y"}}, GatewayOptions{RouteTable: table}); err == nil {
		t.Fatal("replicas alongside RouteTable accepted")
	}
	gw, err := NewReplicatedGateway(e, nil, GatewayOptions{RouteTable: table})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if addrs := gw.Shards()[1].Addrs(); len(addrs) != 1 || addrs[0] != "y" {
		t.Fatalf("gateway did not adopt table addresses: %v", addrs)
	}
}

// TestRebalancerStatsPartial: with one shard unreachable, the parallel
// Stats readout still returns the healthy shard's snapshot, the dead
// shard's slot carries its error, and the whole call is bounded by the
// per-shard timeout — not one full dial timeout per dead shard.
func TestRebalancerStatsPartial(t *testing.T) {
	const src = "(a - b)* @ (b - c)*"
	gw, shards := startCluster(t, src, false, 0)
	// Prime both serving connections, then kill shard 1. The readout must
	// notice the dead connection rather than reuse it blindly.
	if _, err := gw.Rebalancer().Stats(bg); err != nil {
		t.Fatal(err)
	}
	shards[1].stop()

	reb := gw.Rebalancer()
	reb.StatsTimeout = 2 * time.Second
	start := time.Now()
	stats, err := reb.Stats(bg)
	if err == nil {
		t.Fatal("Stats with a dead shard must report the failure")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Stats took %v; per-shard timeout not bounding the readout", elapsed)
	}
	if len(stats) != 2 {
		t.Fatalf("stats len = %d", len(stats))
	}
	if stats[0].Err != "" || stats[0].Primary == "" {
		t.Fatalf("healthy shard readout lost: %+v", stats[0])
	}
	if stats[1].Err == "" {
		t.Fatalf("dead shard reported healthy: %+v", stats[1])
	}

	// The Loads adapter carries the same partial view.
	loads, lerr := reb.Loads(bg)
	if lerr == nil || len(loads) != 2 || loads[1].Err == "" || loads[0].Err != "" {
		t.Fatalf("Loads = %+v, %v", loads, lerr)
	}
}

// blockingStats serves a manager but holds every StatsSnapshot call until
// release closes, announcing each call on entered.
type blockingStats struct {
	manager.Coordinator
	m                *manager.Manager
	entered, release chan struct{}
}

func (b blockingStats) StatsSnapshot(ctx context.Context) (manager.StatsSnapshot, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.m.StatsSnapshot(), nil
}

// TestRebalancerStatsCountedInFlight: a Stats readout is a call in flight
// on the shard's serving connection, so an endpoint change that retires
// the connection mid-call lets the reply arrive instead of closing the
// connection under it.
func TestRebalancerStatsCountedInFlight(t *testing.T) {
	m := manager.MustNew(parse.MustParse("(a)*"), manager.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	co := blockingStats{Coordinator: manager.CoordinatorFor(m), m: m,
		entered: make(chan struct{}), release: make(chan struct{})}
	srv := manager.NewCoordServer(co, ln)
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	other := &shard{t: t, e: parse.MustParse("(a)*")}
	other.start()
	t.Cleanup(other.stop)
	gw, err := NewGateway(parse.MustParse("(a)*"), []string{srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })

	type result struct {
		stats []ShardStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := gw.Rebalancer().Stats(bg)
		done <- result{stats, err}
	}()
	select {
	case <-co.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("stats call never reached the coordinator")
	}
	gw.Shards()[0].SetAddrs([]string{other.addr}) // retires the serving connection
	close(co.release)
	r := <-done
	if r.err != nil {
		t.Fatalf("stats across a retire: %v", r.err)
	}
	if r.stats[0].Primary != srv.Addr() {
		t.Fatalf("stats primary = %q, want %q", r.stats[0].Primary, srv.Addr())
	}
}
