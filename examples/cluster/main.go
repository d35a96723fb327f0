// Sharded coordination cluster with checkpoint recovery: a three-operand
// coupling is split across three interaction-manager shard servers (real
// TCP, one process here for convenience), fronted by a gateway that
// routes actions by the precomputed name index and runs the two-phase
// reserve/confirm grant across the involved shards. Each shard persists
// an action log and checkpoints its engine state every K confirms,
// truncating the log — so when a shard server is killed and restarted
// mid-workload, it recovers its exact state from snapshot + log tail and
// the gateway transparently reconnects.
//
// Run with: go run ./examples/cluster
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/manager"
	"repro/ix"
)

// The pipeline constraint: submissions are approved, approvals executed,
// executions archived. Neighboring stages share an action, so approve
// spans shards 0+1 and exec spans shards 1+2 — every grant of a shared
// action is a distributed two-phase commit.
const pipeline = "(submit - approve)* @ (approve - exec)* @ (exec - archive)*"

type shardProc struct {
	e    *ix.Expr
	opts manager.Options
	addr string
	m    *manager.Manager
	srv  *manager.Server
}

func (sh *shardProc) start() error {
	m, err := manager.New(sh.e, sh.opts)
	if err != nil {
		return err
	}
	addr := sh.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		m.Close()
		return err
	}
	sh.m = m
	sh.srv = manager.NewServer(m, ln)
	sh.addr = sh.srv.Addr()
	return nil
}

func (sh *shardProc) stop() {
	sh.srv.Close()
	sh.m.Close()
}

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "ix-cluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	e := ix.MustParse(pipeline)
	parts := ix.PartitionCoupling(e)
	fmt.Printf("coupling split into %d shards:\n", len(parts))

	shards := make([]*shardProc, len(parts))
	addrs := make([]string, len(parts))
	for i, part := range parts {
		shards[i] = &shardProc{e: part, opts: manager.Options{
			LogPath:       filepath.Join(dir, fmt.Sprintf("shard%d.log", i)),
			SnapshotPath:  filepath.Join(dir, fmt.Sprintf("shard%d.snap", i)),
			SnapshotEvery: 2,
			// Group commit: concurrent requests coalesce into one
			// admission + one log flush/fsync per group on each shard.
			BatchMaxSize: 32,
			SyncWrites:   true,
		}}
		if err := shards[i].start(); err != nil {
			log.Fatal(err)
		}
		addrs[i] = shards[i].addr
		fmt.Printf("  shard %d on %s: %s\n", i, addrs[i], part)
	}
	defer func() {
		for _, sh := range shards {
			sh.stop()
		}
	}()

	gw, err := cluster.NewGateway(e, addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer gw.Close()
	if err := gw.Ping(ctx); err != nil {
		log.Fatal(err)
	}

	request := func(name string, wantDenied bool) {
		a := ix.MustAction(name)
		err := gw.Request(ctx, a)
		switch {
		case err == nil && !wantDenied:
			fmt.Printf("  %-8s granted (shards %v)\n", name, gw.Route(a))
		case errors.Is(err, ix.ErrDenied) && wantDenied:
			fmt.Printf("  %-8s DENIED as it must be (reservations rolled back)\n", name)
		case err == nil:
			log.Fatalf("%s: granted but should have been denied", name)
		default:
			log.Fatalf("%s: %v", name, err)
		}
	}

	fmt.Println("\nphase 1 — distributed grants across live shards:")
	request("approve", true) // nothing submitted yet: shard 0 refuses, nothing commits
	request("submit", false)
	request("approve", false) // two-phase across shards 0 and 1
	request("exec", false)    // two-phase across shards 1 and 2
	request("submit", false)
	request("approve", false)

	fmt.Println("\n--- killing shard 1 and restarting it on the same address ---")
	shards[1].stop()
	if err := shards[1].start(); err != nil {
		log.Fatal(err)
	}
	if st := shards[1].m.Stats(); true {
		fmt.Printf("  shard 1 recovered: %d transitions replayed from snapshot+log tail (snapshots written before crash: ≥1, stats reset on restart: %d)\n",
			shards[1].m.Steps(), st.Snapshots)
	}

	fmt.Println("\nphase 2 — the recovered shard enforces its exact pre-crash state:")
	request("approve", true) // shard 1 is mid-round: exec is due, approve is not
	request("exec", true)    // shard 1 grants, shard 2 refuses (archive due): rollback
	request("archive", false)
	request("exec", false) // spans the recovered shard 1 and shard 2
	request("archive", false)
	request("submit", false)
	request("approve", false)

	fmt.Println("\nphase 3 — pipelined batch: one framed multi-op message per shard per round:")
	// A pipeline round as one burst: the gateway ships single-shard
	// actions as one frame per destination shard (submit→0), concurrently,
	// then runs the cross-shard ones (exec spans 1+2, approve spans 0+1)
	// as two-phase grants — far fewer round trips than action-by-action,
	// and each shard group commits its frame with one fsync.
	burst := []ix.Action{
		ix.MustAction("submit"),
		ix.MustAction("exec"),
		ix.MustAction("approve"),
	}
	for i, err := range gw.RequestMany(ctx, burst) {
		if err != nil {
			log.Fatalf("burst slot %d (%s): %v", i, burst[i], err)
		}
		fmt.Printf("  %-8s granted in burst (shards %v)\n", burst[i], gw.Route(burst[i]))
	}

	total := 0
	for i, sh := range shards {
		st := sh.m.Stats()
		total += sh.m.Steps()
		fmt.Printf("\nshard %d: %d transitions, %d snapshots since restart", i, sh.m.Steps(), st.Snapshots)
	}
	fmt.Printf("\ncommitted transitions across the cluster: %d\n", total)
	fmt.Println("cluster demo OK")
}
