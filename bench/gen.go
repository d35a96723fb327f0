package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/paper"
	"repro/internal/state"
)

// Traffic. Every workload's inputs are a pure function of the seed; the
// program under test receives only the generated actions. Each
// generated action carries the verdict a plain reference state.Engine
// gives it, so the measured loop compares verdicts with a table lookup
// and pays nothing for the reference.

// step is one generated action and its reference verdict.
type step struct {
	act  expr.Action
	deny bool
}

// digester hashes an action sequence; the digest is printed with every
// result so that "same seed, same inputs" can be checked.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(s step) {
	fmt.Fprintf(d.h, "%s\x00%t\n", s.act, s.deny)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// verifyScript feeds the script to a reference engine for e, checks
// every expected verdict, and checks that the script ends in the state
// it began in, so that it can be looped forever.
func verifyScript(e *expr.Expr, script []step) error {
	ref, err := state.NewEngine(e)
	if err != nil {
		return err
	}
	initial := ref.StateKey()
	for i, s := range script {
		if ok := ref.Try(s.act); ok == s.deny {
			return fmt.Errorf("script step %d (%s): reference permits=%t, script expects deny=%t", i, s.act, ok, s.deny)
		}
		if !s.deny {
			if err := ref.Step(s.act); err != nil {
				return fmt.Errorf("script step %d (%s): %w", i, s.act, err)
			}
		}
	}
	if ref.StateKey() != initial {
		return fmt.Errorf("script does not return to the initial state")
	}
	return nil
}

// --- quasi-regular, one operand per client ---------------------------------

// burstSize is the RequestMany burst of durable_quasi; quasi scripts are
// a whole number of bursts, and every burst ends in the initial state.
const burstSize = 32

// quasiOperand is client c's operand ((a_c - b_c) | b_c)*.
func quasiOperand(c int) *expr.Expr {
	a := expr.AtomNamed(fmt.Sprintf("a%d", c))
	b := expr.AtomNamed(fmt.Sprintf("b%d", c))
	return expr.SeqIter(expr.Or(expr.Seq(a, b), b))
}

// quasiExpr is the parallel composition of one operand per client.
// Clients never share an action, so a client's verdicts do not depend
// on how the clients interleave.
func quasiExpr(clients int) *expr.Expr {
	ops := make([]*expr.Expr, clients)
	for c := range ops {
		ops[c] = quasiOperand(c)
	}
	return expr.Par(ops...)
}

// quasiScript builds client c's looping script of the given number of
// bursts. Each half burst is 15 granted actions, made of seed-chosen
// "a b" pairs and lone "b"s, plus (when deny is set) one denial: an
// "a" repeated while its "b" is still owed. That is one expected denial
// in 16 operations.
func quasiScript(rng *rand.Rand, c, bursts int, deny bool) []step {
	a := expr.ConcreteAct(fmt.Sprintf("a%d", c))
	b := expr.ConcreteAct(fmt.Sprintf("b%d", c))
	granted := burstSize/2 - 1
	if !deny {
		granted = burstSize / 2
	}
	var script []step
	for blk := 0; blk < 2*bursts; blk++ {
		// units[i] is true for an "a b" pair, false for a lone "b". A block
		// starts from one pair, which a denial can hang on.
		units := []bool{true}
		pairs := 1
		for n := 2; n < granted; {
			pair := n+2 <= granted && rng.Intn(2) == 0
			units = append(units, pair)
			if pair {
				pairs++
				n += 2
			} else {
				n++
			}
		}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		denyAt := -1
		if deny {
			denyAt = rng.Intn(pairs)
		}
		seen := 0
		for _, pair := range units {
			if !pair {
				script = append(script, step{act: b})
				continue
			}
			script = append(script, step{act: a})
			if seen == denyAt {
				script = append(script, step{act: a, deny: true})
			}
			seen++
			script = append(script, step{act: b})
		}
	}
	return script
}

// --- uniformly quantified ----------------------------------------------------

const (
	uniformSrc      = "all p: (call(p) - (any q: assist(p,q)) - perform(p))*"
	uniformPatients = 8
)

// uniformGranted is bench_test.go's deepQuantExpr generator: 8 resident
// patients cycle call, assist, perform in interleaved phases, so the
// global state sequence has period 24.
func uniformGranted(i int) expr.Action {
	const k = uniformPatients
	p := fmt.Sprintf("pat%d", i%k)
	switch (i % (3 * k)) / k {
	case 0:
		return expr.ConcreteAct("call", p)
	case 1:
		return expr.ConcreteAct("assist", p, "helper")
	}
	return expr.ConcreteAct("perform", p)
}

// uniformScript is nine periods of the granted cycle with every 10th
// operation a seed-chosen out-of-order action: one of the two actions
// the reference engine refuses for a seed-chosen patient at that point.
func uniformScript(rng *rand.Rand, e *expr.Expr) ([]step, error) {
	ref, err := state.NewEngine(e)
	if err != nil {
		return nil, err
	}
	var script []step
	for i := 0; i < 9*3*uniformPatients; i++ {
		a := uniformGranted(i)
		if err := ref.Step(a); err != nil {
			return nil, err
		}
		script = append(script, step{act: a})
		if len(script)%10 != 9 {
			continue
		}
		p := fmt.Sprintf("pat%d", rng.Intn(uniformPatients))
		cands := []expr.Action{
			expr.ConcreteAct("call", p),
			expr.ConcreteAct("assist", p, "helper"),
			expr.ConcreteAct("perform", p),
		}
		first := rng.Intn(len(cands))
		for k := range cands {
			if d := cands[(first+k)%len(cands)]; !ref.Try(d) {
				script = append(script, step{act: d, deny: true})
				break
			}
		}
	}
	return script, nil
}

// --- malignant ---------------------------------------------------------------

// malignantWord is how many a's one admit_malignant operation requests.
const malignantWord = 14

// malignantExpr is Sec 6's ((a - b?)# - c)# (complexity.MalignantExpr)
// with every atom suffixed by tag, so that no state of one operation
// recurs in another. It returns the expression and its "a".
func malignantExpr(tag string) (*expr.Expr, expr.Action) {
	a := expr.AtomNamed("a" + tag)
	b := expr.AtomNamed("b" + tag)
	c := expr.AtomNamed("c" + tag)
	e := expr.ParIter(expr.Seq(expr.ParIter(expr.Seq(a, expr.Option(b))), c))
	return e, expr.ConcreteAct("a" + tag)
}

// --- Fig 7 ---------------------------------------------------------------------

// fig7Block is the traffic period of cluster_fig7: 11 visit operations
// and one out-of-order perform.
const fig7Block = 12

// fig7Gen generates client c's traffic on the coupled graph of Fig 7 as
// a pure function of the operation index. Every visit is a fresh
// patient passing prepare, call, perform for the client's private
// examination kind, so Fig 6's capacity never binds and the working set
// is unbounded. One operation in 12, at a seed-chosen place in its
// block, is a perform for a patient nobody called, which the patient
// constraint refuses at reserve.
type fig7Gen struct {
	seed uint64
	c    int
	exam string
}

func newFig7Gen(seed int64, c int) *fig7Gen {
	return &fig7Gen{seed: uint64(seed), c: c, exam: fmt.Sprintf("x%d", c)}
}

// splitmix64 is the SplitMix64 finalizer, used as a stateless hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (g *fig7Gen) at(i int) step {
	blk, r := i/fig7Block, i%fig7Block
	denyAt := int(splitmix64(g.seed^uint64(g.c)<<32^uint64(blk)) % fig7Block)
	if r == denyAt {
		return step{act: paper.PerformAct(fmt.Sprintf("s%dc%dn%d", g.seed, g.c, blk), g.exam), deny: true}
	}
	if r > denyAt {
		r--
	}
	j := blk*(fig7Block-1) + r
	p := fmt.Sprintf("s%dc%dv%d", g.seed, g.c, j/3)
	switch j % 3 {
	case 0:
		return step{act: paper.PrepareAct(p, g.exam)}
	case 1:
		return step{act: paper.CallAct(p, g.exam)}
	}
	return step{act: paper.PerformAct(p, g.exam)}
}
