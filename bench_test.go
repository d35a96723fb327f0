// Benchmark harness: one benchmark per experiment of the reproduction,
// named E1–E12 after the paper's figures and claims it measures. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/complexity"
	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/paper"
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
