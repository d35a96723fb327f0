// Benchmark harness: one benchmark per experiment of the reproduction,
// named E1–E12 after the paper's figures and claims it measures. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/complexity"
	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/placement"
	"repro/internal/semantics"
	"repro/internal/state"
	"repro/ix"
)

var bg = context.Background()

// --- E1/E12: oracle vs operational ------------------------------------

// BenchmarkE1_Oracle decides a fixed word with the executable formal
// semantics of Table 8 (the naive reference algorithm).
func BenchmarkE1_Oracle(b *testing.B) {
	e := ix.MustParse("(a - b)# & (a | b)*")
	w := abWord(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := semantics.New(e, len(w))
		o.Verdict(semantics.Word(w))
	}
}

// BenchmarkE1_Operational decides the same word with the state model.
func BenchmarkE1_Operational(b *testing.B) {
	e := ix.MustParse("(a - b)# & (a | b)*")
	w := abWord(8)
	en := state.MustEngine(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.Word(w)
	}
}

// BenchmarkE12_NaiveBlowup shows the oracle's exponential growth in the
// word length; compare the /len=... variants against the flat
// operational ones.
func BenchmarkE12_NaiveBlowup(b *testing.B) {
	e := ix.MustParse("(a - b)# & (a | b)*")
	for _, n := range []int{5, 9, 13} {
		w := append(abWord(n-1), expr.ConcreteAct("a"))
		b.Run(fmt.Sprintf("oracle/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := semantics.New(e, len(w))
				o.Verdict(semantics.Word(w))
			}
		})
		b.Run(fmt.Sprintf("operational/len=%d", n), func(b *testing.B) {
			en := state.MustEngine(e)
			for i := 0; i < b.N; i++ {
				en.Word(w)
			}
		})
	}
}

func abWord(n int) []expr.Action {
	var w []expr.Action
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			w = append(w, expr.ConcreteAct("a"))
		} else {
			w = append(w, expr.ConcreteAct("b"))
		}
	}
	return w
}

// --- E3/E6/E7: figure expressions under steady load --------------------

// benchScenario measures the per-action transition cost of an expression
// driven with its intended workload in steady state.
func benchScenario(b *testing.B, e *expr.Expr, gen func(i int) expr.Action) {
	b.Helper()
	en := state.MustEngine(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := en.Step(gen(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(en.StateSize()), "state-size")
}

// BenchmarkFig3Transition drives the patient constraint: a rolling
// population of patients passing examinations.
func BenchmarkFig3Transition(b *testing.B) {
	benchScenario(b, paper.Fig3PatientConstraint(), medicalGen)
}

// BenchmarkFig6Transition drives the capacity restriction.
func BenchmarkFig6Transition(b *testing.B) {
	benchScenario(b, paper.Fig6CapacityRestriction(), func(i int) expr.Action {
		p := paper.Patient(i / 2)
		if i%2 == 0 {
			return paper.CallAct(p, paper.ExamSono)
		}
		return paper.PerformAct(p, paper.ExamSono)
	})
}

// BenchmarkFig7Coupled drives the coupled graph of Fig 7.
func BenchmarkFig7Coupled(b *testing.B) {
	benchScenario(b, paper.Fig7Coupled(), medicalGen)
}

// medicalGen emits prepare, call, perform cycles over a rolling patient
// window so the constraint sees realistic, completable traffic.
func medicalGen(i int) expr.Action {
	p := paper.Patient(i / 3)
	switch i % 3 {
	case 0:
		return paper.PrepareAct(p, paper.ExamSono)
	case 1:
		return paper.CallAct(p, paper.ExamSono)
	default:
		return paper.PerformAct(p, paper.ExamSono)
	}
}

// --- E9/E10/E11: complexity classes -------------------------------------

// BenchmarkE9_QuasiRegular: constant-cost transitions (harmless class).
func BenchmarkE9_QuasiRegular(b *testing.B) {
	e, gen := complexity.QuasiRegularExpr()
	benchScenario(b, e, gen)
}

// BenchmarkE10_Uniform: polynomially growing state (benign class). The
// cost per transition grows with the touched-value population, so the
// reported ns/op averages over a growing state.
func BenchmarkE10_Uniform(b *testing.B) {
	e, gen := complexity.UniformExpr()
	en := state.MustEngine(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bound the patient population so steady-state cost is measured.
		if err := en.Step(gen(i % 200)); err != nil {
			// Restart the cycle when the bounded word wraps illegally.
			en.Reset()
			i--
		}
	}
	b.ReportMetric(float64(en.StateSize()), "state-size")
}

// BenchmarkE11_Malignant: exponential state growth — each op processes
// the full 14-action adversarial word from scratch.
func BenchmarkE11_Malignant(b *testing.B) {
	e, gen := complexity.MalignantExpr()
	var w []expr.Action
	for i := 0; i < 14; i++ {
		w = append(w, gen(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := state.MustEngine(e)
		for _, a := range w {
			if err := en.Step(a); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E8: word and action problems ----------------------------------------

// BenchmarkWordProblem solves the word problem on the Fig 7 constraint.
func BenchmarkWordProblem(b *testing.B) {
	e := paper.Fig7Coupled()
	var w []expr.Action
	for i := 0; i < 30; i++ {
		w = append(w, medicalGen(i))
	}
	en := state.MustEngine(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if en.Word(w) == state.Illegal {
			b.Fatal("word should be legal")
		}
	}
}

// BenchmarkParse measures the text-syntax parser on a template-using
// program.
func BenchmarkParse(b *testing.B) {
	src := `
		def mutex(x, y, z) = (x | y | z)*;
		all p: mutex((any x: prepare(p,x))#, any x: call(p,x) - perform(p,x), (any x: inform(p,x))#)
	`
	for i := 0; i < b.N; i++ {
		if _, err := ix.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13/E14/E17: manager protocols ---------------------------------------

// BenchmarkManagerThroughput: in-process atomic requests.
func BenchmarkManagerThroughput(b *testing.B) {
	m := manager.MustNew(ix.MustParse("(a | b)*"), manager.Options{})
	defer m.Close()
	a := expr.ConcreteAct("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Request(bg, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagerBatchedThroughput (E19): group commit on the durable
// atomic-request hot path. Both variants run the identical workload —
// concurrent clients issuing atomic requests against a manager with a
// persistent, fsynced action log; "unbatched" pays one admission check,
// one log flush and one fsync per confirm, "batched" coalesces concurrent
// requests into group commits that pay them once per batch. Expect ≥2x
// confirmed actions/sec for the batched variant.
func BenchmarkManagerBatchedThroughput(b *testing.B) {
	const clients = 8
	run := func(b *testing.B, opts manager.Options) {
		opts.LogPath = b.TempDir() + "/actions.log"
		opts.SyncWrites = true
		m := manager.MustNew(ix.MustParse("(a | b)*"), opts)
		defer m.Close()
		b.SetParallelism(clients)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			a := expr.ConcreteAct("a")
			for pb.Next() {
				if err := m.Request(bg, a); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
	}
	b.Run("unbatched", func(b *testing.B) { run(b, manager.Options{}) })
	b.Run("batched", func(b *testing.B) {
		run(b, manager.Options{BatchMaxSize: 64, BatchMaxDelay: 200 * time.Microsecond})
	})
	// Identical to "batched" but with the full metrics registry attached
	// — the PR 6 overhead gate compares the two (instrumentation must
	// cost ≤5% throughput).
	b.Run("instrumented", func(b *testing.B) {
		run(b, manager.Options{
			BatchMaxSize:  64,
			BatchMaxDelay: 200 * time.Microsecond,
			Metrics:       obs.NewRegistry(),
		})
	})
}

// BenchmarkGatewayPipelined (E20): the framed multi-op wire path. The
// same disjoint-alphabet workload is driven through the gateway once as
// one-request-per-round-trip and once as pipelined bursts that the
// gateway groups into one frame per shard per round; the shard managers
// group commit either way. Expect the pipelined variant to amortize the
// per-action round trip away (≥2x confirms/s).
func BenchmarkGatewayPipelined(b *testing.B) {
	const burstLen = 48
	setup := func(b *testing.B, instrumented bool) *cluster.Gateway {
		e := ix.MustParse("(a1 | b1)* @ (a2 | b2)* @ (a3 | b3)*")
		parts := cluster.Partition(e)
		replicas := make([][]string, len(parts))
		for i, part := range parts {
			mopts := manager.Options{BatchMaxSize: 64, BatchMaxDelay: 100 * time.Microsecond}
			if instrumented {
				mopts.Metrics = obs.NewRegistry()
			}
			m := manager.MustNew(part, mopts)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := manager.NewServer(m, ln)
			replicas[i] = []string{srv.Addr()}
			b.Cleanup(func() { srv.Close(); m.Close() })
		}
		var gopts cluster.GatewayOptions
		if instrumented {
			gopts.Metrics = obs.NewRegistry()
			gopts.TraceCapacity = cluster.DefaultTraceCapacity
		} else {
			gopts.TraceCapacity = -1
		}
		gw, err := cluster.NewReplicatedGateway(e, replicas, gopts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gw.Close() })
		if err := gw.Ping(bg); err != nil {
			b.Fatal(err)
		}
		return gw
	}
	workload := func(i int) expr.Action {
		return expr.ConcreteAct(fmt.Sprintf("a%d", i%3+1))
	}
	runPipelined := func(b *testing.B, instrumented bool) {
		gw := setup(b, instrumented)
		b.ResetTimer()
		for done := 0; done < b.N; {
			n := burstLen
			if rest := b.N - done; rest < n {
				n = rest
			}
			burst := make([]expr.Action, n)
			for j := range burst {
				burst[j] = workload(done + j)
			}
			for _, err := range gw.RequestMany(bg, burst) {
				if err != nil {
					b.Fatal(err)
				}
			}
			done += n
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
	}
	b.Run("sequential", func(b *testing.B) {
		gw := setup(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := gw.Request(bg, workload(i)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
	})
	b.Run("pipelined", func(b *testing.B) { runPipelined(b, false) })
	// The same pipelined workload with metrics registries on the gateway,
	// every shard manager and every wire server, plus grant tracing — the
	// PR 6 overhead gate's instrumented side.
	b.Run("pipelined-instrumented", func(b *testing.B) { runPipelined(b, true) })
}

// BenchmarkManagerAskConfirm: the full critical-region cycle.
func BenchmarkManagerAskConfirm(b *testing.B) {
	m := manager.MustNew(ix.MustParse("(a | b)*"), manager.Options{})
	defer m.Close()
	a := expr.ConcreteAct("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk, err := m.Ask(bg, a)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Confirm(tk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkManagerTCP: one request round trip over loopback TCP.
func BenchmarkManagerTCP(b *testing.B) {
	m := manager.MustNew(ix.MustParse("(a | b)*"), manager.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := manager.NewServer(m, ln)
	cl, err := manager.Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		cl.Close()
		srv.Close()
		m.Close()
	}()
	a := expr.ConcreteAct("a")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Request(bg, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubscriptionFanout: transition cost with many subscriptions
// to re-evaluate (E14).
func BenchmarkSubscriptionFanout(b *testing.B) {
	for _, subs := range []int{0, 10, 100} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			// The patient constraint admits unboundedly many concurrent
			// patients, so the request stream below never runs dry.
			m := manager.MustNew(paper.Fig3PatientConstraint(), manager.Options{})
			defer m.Close()
			for i := 0; i < subs; i++ {
				s := m.Subscribe(paper.CallAct(paper.Patient(i), paper.ExamEndo))
				<-s.C
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := paper.Patient(i)
				if err := m.Request(bg, paper.CallAct(p, paper.ExamSono)); err != nil {
					b.Fatal(err)
				}
				if err := m.Request(bg, paper.PerformAct(p, paper.ExamSono)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGatewayDisjoint (E18): the sharded gateway versus a single
// manager on a disjoint-alphabet workload, both over loopback TCP and
// both running the full coordination protocol of Fig 10 — ask, then
// *execute the action* (modeled by benchExecTime), then confirm, with
// the manager holding the critical region throughout the execution. The
// single manager has ONE region, so every client's execution window
// serializes behind it; the gateway gives each shard its own region, so
// disjoint actions execute concurrently. Expect the gateway to sustain
// ≥2× the confirmed-actions/sec (≈3× with 3 shards).
func BenchmarkGatewayDisjoint(b *testing.B) {
	e := ix.MustParse("(a1 | b1)* @ (a2 | b2)* @ (a3 | b3)*")
	workload := func(i int) expr.Action {
		return expr.ConcreteAct(fmt.Sprintf("a%d", i%3+1))
	}
	// Execution time inside the critical region (the client-side work the
	// reservation protects), and the number of concurrent clients per
	// GOMAXPROCS. Cycles overlap on in-flight I/O and sleeps, not CPUs,
	// so the comparison holds on any machine.
	const benchExecTime = 200 * time.Microsecond
	const benchClients = 6

	b.Run("single", func(b *testing.B) {
		m := manager.MustNew(e, manager.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := manager.NewServer(m, ln)
		defer func() {
			srv.Close()
			m.Close()
		}()
		var id atomic.Int32
		b.SetParallelism(benchClients)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			cl, err := manager.Dial(srv.Addr())
			if err != nil {
				b.Error(err)
				return
			}
			defer cl.Close()
			a := workload(int(id.Add(1)))
			for pb.Next() {
				tk, err := cl.Ask(bg, a)
				if err != nil {
					b.Error(err)
					return
				}
				time.Sleep(benchExecTime) // execute under the reservation
				if err := cl.Confirm(bg, tk); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
	})

	b.Run("gateway", func(b *testing.B) {
		parts := cluster.Partition(e)
		addrs := make([]string, len(parts))
		var cleanup []func()
		defer func() {
			for _, f := range cleanup {
				f()
			}
		}()
		for i, part := range parts {
			m := manager.MustNew(part, manager.Options{})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := manager.NewServer(m, ln)
			addrs[i] = srv.Addr()
			cleanup = append(cleanup, func() { srv.Close(); m.Close() })
		}
		gw, err := cluster.NewGateway(e, addrs)
		if err != nil {
			b.Fatal(err)
		}
		defer gw.Close()
		if err := gw.Ping(bg); err != nil {
			b.Fatal(err)
		}
		var id atomic.Int32
		b.SetParallelism(benchClients)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			a := workload(int(id.Add(1)))
			for pb.Next() {
				tk, err := gw.Ask(bg, a)
				if err != nil {
					b.Error(err)
					return
				}
				time.Sleep(benchExecTime) // execute under the reservation
				if err := gw.Confirm(bg, tk); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
	})
}

// --- E23: replication and failover ----------------------------------------

// BenchmarkGatewayFailover (E23): the confirm path of a replicated shard
// versus an unreplicated one, over loopback TCP through the gateway.
// "unreplicated" is the baseline single-server shard; "replicated-async"
// streams every commit to a follower with asynchronous acks — the mode
// whose cost the CI gate bounds at ≤2x the baseline; "failover" runs the
// same replicated workload and crash-stops the primary halfway through,
// measuring steady-state throughput with one failover (election +
// promotion) mid-run — every request must still succeed.
func BenchmarkGatewayFailover(b *testing.B) {
	type node struct {
		m   *manager.Manager
		srv *manager.Server
	}
	// setup starts a replica set for (a | b)* and a gateway over it.
	setup := func(b *testing.B, replicas int, opts manager.Options) (*cluster.Gateway, []*node) {
		e := ix.MustParse("(a | b)*")
		lns := make([]net.Listener, replicas)
		addrs := make([]string, replicas)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		nodes := make([]*node, replicas)
		for i := range nodes {
			o := opts
			o.Follower = i != 0
			for j, a := range addrs {
				if j != i {
					o.Replicas = append(o.Replicas, a)
				}
			}
			m := manager.MustNew(e, o)
			nodes[i] = &node{m: m, srv: manager.NewServer(m, lns[i])}
		}
		b.Cleanup(func() {
			for _, n := range nodes {
				if n.srv != nil {
					n.srv.Close()
					n.m.Close()
				}
			}
		})
		gw, err := cluster.NewReplicatedGateway(e, [][]string{addrs}, cluster.GatewayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gw.Close() })
		if err := gw.Ping(bg); err != nil {
			b.Fatal(err)
		}
		return gw, nodes
	}
	// The gated pair runs the production shape: concurrent clients whose
	// requests the shard group-commits (PR 2), so replication pays one
	// frame per batch, not per action. 8 clients per GOMAXPROCS keep the
	// commit queue busy.
	batched := manager.Options{BatchMaxSize: 64, BatchMaxDelay: 100 * time.Microsecond}
	runParallel := func(b *testing.B, gw *cluster.Gateway) {
		a := expr.ConcreteAct("a")
		b.SetParallelism(8)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := gw.Request(bg, a); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
	}
	b.Run("unreplicated", func(b *testing.B) {
		gw, _ := setup(b, 1, batched)
		runParallel(b, gw)
	})
	b.Run("replicated-async", func(b *testing.B) {
		gw, _ := setup(b, 2, batched)
		runParallel(b, gw)
	})
	// One failover mid-run, serial so every request's outcome is
	// deterministic: the kill, the election and the promotion all happen
	// inside the measured window and every request must succeed.
	b.Run("failover", func(b *testing.B) {
		gw, nodes := setup(b, 2, manager.Options{})
		a := expr.ConcreteAct("a")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i == b.N/2 {
				nodes[0].srv.Close()
				nodes[0].m.Close()
				nodes[0].srv = nil
				deadline := time.Now().Add(10 * time.Second)
				for {
					if ok, err := gw.Try(bg, a); err == nil && ok {
						break
					} else if time.Now().After(deadline) {
						b.Fatalf("failover did not complete: ok=%v err=%v", ok, err)
					}
				}
			}
			if err := gw.Request(bg, a); err != nil {
				b.Fatalf("request %d: %v", i, err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
	})
}

// --- E24: live shard migration ---------------------------------------------

// BenchmarkShardMigration (E24): the ask/confirm path of a replicated
// shard at steady state versus while live migrations run continuously —
// the primary ping-pongs between the two replicas, so the measured
// window keeps hitting drain windows, route-table updates and
// epoch-fencing promotions. Both variants report confirms/s and the p99
// request latency; every request must succeed (drain windows are waited
// out, never surfaced). CI gates the migrating variant at ≤2x
// degradation of the steady confirm rate.
func BenchmarkShardMigration(b *testing.B) {
	type node struct {
		m   *manager.Manager
		srv *manager.Server
	}
	setup := func(b *testing.B) (*cluster.Gateway, []string) {
		e := ix.MustParse("(a | b)*")
		const replicas = 2
		lns := make([]net.Listener, replicas)
		addrs := make([]string, replicas)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		for i := 0; i < replicas; i++ {
			o := manager.Options{SyncReplicas: true, Follower: i != 0}
			for j, a := range addrs {
				if j != i {
					o.Replicas = append(o.Replicas, a)
				}
			}
			m := manager.MustNew(e, o)
			n := &node{m: m, srv: manager.NewServer(m, lns[i])}
			b.Cleanup(func() { n.srv.Close(); n.m.Close() })
		}
		gw, err := cluster.NewReplicatedGateway(e, [][]string{addrs}, cluster.GatewayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gw.Close() })
		if err := gw.Ping(bg); err != nil {
			b.Fatal(err)
		}
		return gw, addrs
	}
	// run measures per-request latency serially, reporting throughput and
	// p99 — the number the migration must not degrade by more than 2x.
	run := func(b *testing.B, gw *cluster.Gateway) {
		a := expr.ConcreteAct("a")
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithTimeout(bg, 30*time.Second)
			t0 := time.Now()
			err := gw.Request(ctx, a)
			lats = append(lats, time.Since(t0))
			cancel()
			if err != nil {
				b.Fatalf("request %d: %v", i, err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		idx := len(lats) * 99 / 100
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		b.ReportMetric(float64(lats[idx].Microseconds()), "p99-us")
	}
	b.Run("steady", func(b *testing.B) {
		gw, _ := setup(b)
		run(b, gw)
	})
	b.Run("migrating", func(b *testing.B) {
		gw, addrs := setup(b)
		reb := gw.Rebalancer()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Ping-pong the primary: the target of each migration is the
			// node that is currently the follower.
			for target := 1; ; target = 1 - target {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(bg, 30*time.Second)
				err := reb.MigrateShard(ctx, 0, addrs[target], cluster.MigrateOptions{})
				cancel()
				if err != nil {
					b.Errorf("migration: %v", err)
					return
				}
				// Breathe between migrations: back-to-back drains would
				// measure nothing but the drain window itself; real
				// rebalancing migrates a shard, not a metronome.
				select {
				case <-stop:
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
		}()
		run(b, gw)
		close(stop)
		<-done
	})
}

// --- E25: control plane on the data-plane hot path --------------------------

// BenchmarkRoutePlane (E25, PR 10): the request hot path of a gateway
// serving from a shared placement.RouteTable versus one serving from a
// pinned private address list, and the same table-attached gateway with
// the autopilot control loop polling while traffic runs. The route table
// only fans out on topology *changes* — the hot path reads the same
// shard-client state either way — so CI gates "shared-table" at ≥95% of
// "pinned" confirms/s, and "autopilot-on" (a controller polling Stats
// every 10ms, hot detection disabled by an unreachable score floor so no
// migration fires mid-measurement) at ≥95% of "shared-table".
func BenchmarkRoutePlane(b *testing.B) {
	setup := func(b *testing.B, useTable bool) *cluster.Gateway {
		e := ix.MustParse("(a | b)*")
		m := manager.MustNew(e, manager.Options{BatchMaxSize: 64, BatchMaxDelay: 100 * time.Microsecond})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := manager.NewServer(m, ln)
		b.Cleanup(func() { srv.Close(); m.Close() })
		var gw *cluster.Gateway
		if useTable {
			gw, err = cluster.NewReplicatedGateway(e, nil, cluster.GatewayOptions{
				RouteTable: placement.MustRouteTable([][]string{{srv.Addr()}}),
			})
		} else {
			gw, err = cluster.NewReplicatedGateway(e, [][]string{{srv.Addr()}}, cluster.GatewayOptions{})
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gw.Close() })
		if err := gw.Ping(bg); err != nil {
			b.Fatal(err)
		}
		return gw
	}
	run := func(b *testing.B, gw *cluster.Gateway) {
		a := expr.ConcreteAct("a")
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if err := gw.Request(bg, a); err != nil {
				b.Fatalf("request %d: %v", i, err)
			}
			lats = append(lats, time.Since(t0))
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "confirms/s")
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		idx := len(lats) * 99 / 100
		if idx >= len(lats) {
			idx = len(lats) - 1
		}
		b.ReportMetric(float64(lats[idx].Microseconds()), "p99-us")
	}
	b.Run("pinned", func(b *testing.B) { run(b, setup(b, false)) })
	b.Run("shared-table", func(b *testing.B) { run(b, setup(b, true)) })
	b.Run("autopilot-on", func(b *testing.B) {
		gw := setup(b, true)
		reb := gw.Rebalancer()
		ctrl := placement.NewController(reb, reb, placement.ControllerOptions{
			Interval: 10 * time.Millisecond,
			// No spares and an unreachable floor: the loop polls, scores and
			// holds — its steady-state cost is what this variant measures.
			MinScore: 1e18,
		})
		ctx, cancel := context.WithCancel(bg)
		defer cancel()
		go ctrl.Run(ctx)
		run(b, gw)
	})
}

// BenchmarkMultiManager: the distributed two-phase grant across the
// managers of the coupled Fig 7 constraint (E17).
func BenchmarkMultiManager(b *testing.B) {
	r, err := manager.NewRouter(paper.Fig7Coupled(), manager.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := paper.Patient(i)
		if err := r.Request(bg, paper.CallAct(p, paper.ExamSono)); err != nil {
			b.Fatal(err)
		}
		if err := r.Request(bg, paper.PerformAct(p, paper.ExamSono)); err != nil {
			b.Fatal(err)
		}
	}
}
