package state

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/parse"
)

// Property-test harness for the paper's algebraic laws, checked between
// *operational states* rather than denotations: two expressions are
// related by joint bounded exploration — from σ(e1)/σ(e2), every action
// of a covering concrete alphabet is applied to both sides and validity
// and finality must agree at every reachable pair of states (trace
// equivalence up to a depth bound). Each law runs twice, once on the
// plain transition function and once through a shared memo Cache, so the
// suite simultaneously proves the laws and proves the hash-consing +
// memoization refactor behavior-preserving.

// stepper abstracts τ̂ so laws run pre- and post-memoization.
type stepper func(State, expr.Action) State

func plainStep(s State, a expr.Action) State { return Trans(s, a) }

func cachedStep(c *Cache) stepper {
	return func(s State, a expr.Action) State { return c.Transition(s, a) }
}

// lawSigma builds a covering concrete action set for the expressions:
// every atom instantiated with every value of vals (parameter positions
// get each value in turn), deduplicated.
func lawSigma(vals []string, es ...*expr.Expr) []expr.Action {
	var out []expr.Action
	seen := make(map[string]bool)
	add := func(a expr.Action) {
		if a.Concrete() && !seen[a.Key()] {
			seen[a.Key()] = true
			out = append(out, a)
		}
	}
	for _, e := range es {
		for _, at := range e.Actions() {
			add(at)
			insts := []expr.Action{at}
			for _, p := range sortedParams(at) {
				var next []expr.Action
				for _, in := range insts {
					for _, v := range vals {
						next = append(next, in.Subst(p, v))
					}
				}
				insts = next
			}
			for _, in := range insts {
				add(in)
			}
		}
	}
	return out
}

// sortedParams is at's parameter names in sorted order, so that the
// instances lawSigma lists come in the same order in every process and
// a fuzz word names the same actions whenever it is replayed.
func sortedParams(at expr.Action) []string {
	var ps []string
	for p := range at.Params() {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}

// traceEquivalent explores both state spaces jointly up to depth and
// reports the first divergence (validity or finality) it finds.
func traceEquivalent(e1, e2 *expr.Expr, sigma []expr.Action, depth int, step stepper) error {
	type pair struct{ k1, k2 string }
	visited := make(map[pair]bool)
	var walk func(s1, s2 State, trace []expr.Action, d int) error
	walk = func(s1, s2 State, trace []expr.Action, d int) error {
		if Final(s1) != Final(s2) {
			return fmt.Errorf("finality diverges after %v: left=%v right=%v", trace, Final(s1), Final(s2))
		}
		if d == 0 {
			return nil
		}
		p := pair{stateKey(s1), stateKey(s2)}
		if visited[p] {
			return nil
		}
		visited[p] = true
		for _, a := range sigma {
			n1 := step(s1, a)
			n2 := step(s2, a)
			if (n1 == nil) != (n2 == nil) {
				return fmt.Errorf("validity diverges after %v + %s: left=%v right=%v",
					trace, a, n1 != nil, n2 != nil)
			}
			if n1 == nil {
				continue
			}
			if err := walk(n1, n2, append(trace[:len(trace):len(trace)], a), d-1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(Initial(e1), Initial(e2), nil, depth)
}

func stateKey(s State) string {
	if s == nil {
		return "<invalid>"
	}
	return s.Key()
}

// assertStateLaw checks the law for random operand instantiations, on
// the plain and on the memoized transition function.
func assertStateLaw(t *testing.T, name string, law func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr)) {
	t.Helper()
	rnd := rand.New(rand.NewSource(int64(expr.HashKey(name))))
	cache := NewCache()
	for i := 0; i < 25; i++ {
		g := &exprGen{rnd: rnd}
		x, y, z := g.gen(2), g.gen(2), g.gen(1)
		l, r := law(x, y, z)
		sigma := lawSigma([]string{"v1", "v2"}, l, r)
		if len(sigma) == 0 {
			continue
		}
		if len(sigma) > 8 {
			sigma = sigma[:8]
		}
		for _, mode := range []struct {
			name string
			step stepper
		}{{"plain", plainStep}, {"memoized", cachedStep(cache)}} {
			if err := traceEquivalent(l, r, sigma, 4, mode.step); err != nil {
				t.Fatalf("%s (%s) violated for operands #%d:\n  left:  %s\n  right: %s\n  %v",
					name, mode.name, i, l, r, err)
			}
		}
	}
}

func TestStateLawOrCommutative(t *testing.T) {
	assertStateLaw(t, "x|y = y|x", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Or(x, y), expr.Or(y, x)
	})
}

func TestStateLawOrAssociative(t *testing.T) {
	assertStateLaw(t, "(x|y)|z = x|(y|z)", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Or(expr.Or(x, y), z), expr.Or(x, expr.Or(y, z))
	})
}

func TestStateLawOrIdempotent(t *testing.T) {
	assertStateLaw(t, "x|x = x", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Or(x, x), x
	})
}

func TestStateLawParCommutative(t *testing.T) {
	assertStateLaw(t, "x||y = y||x", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Par(x, y), expr.Par(y, x)
	})
}

func TestStateLawParAssociative(t *testing.T) {
	assertStateLaw(t, "(x||y)||z = x||(y||z)", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Par(expr.Par(x, y), z), expr.Par(x, expr.Par(y, z))
	})
}

func TestStateLawSeqAssociative(t *testing.T) {
	assertStateLaw(t, "(x-y)-z = x-(y-z)", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Seq(expr.Seq(x, y), z), expr.Seq(x, expr.Seq(y, z))
	})
}

func TestStateLawSyncCommutative(t *testing.T) {
	assertStateLaw(t, "x@y = y@x", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Sync(x, y), expr.Sync(y, x)
	})
}

func TestStateLawSyncAssociative(t *testing.T) {
	assertStateLaw(t, "(x@y)@z = x@(y@z)", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Sync(expr.Sync(x, y), z), expr.Sync(x, expr.Sync(y, z))
	})
}

func TestStateLawSyncIdempotent(t *testing.T) {
	assertStateLaw(t, "x@x = x", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.Sync(x, x), x
	})
}

func TestStateLawAndIdempotent(t *testing.T) {
	assertStateLaw(t, "x&x = x", func(x, y, z *expr.Expr) (*expr.Expr, *expr.Expr) {
		return expr.And(x, x), x
	})
}

// --- quantifier unrolling vs. bounded-domain expansion -----------------
//
// Over words whose values are drawn from {v1, v2}, a quantifier over the
// infinite universe Ω behaves exactly like its finite expansion over
// {v1, v2} plus enough *fresh* representatives: every untouched ω ∈ Ω is
// interchangeable with an unmentioned expansion value. Disjunction,
// conjunction and synchronization quantifiers need one representative
// (only "some other value" matters); the parallel quantifier needs one
// fresh representative per word position, since distinct anonymous
// branches may each consume part of the word.

// quantBody generates a random body with the quantifier parameter in
// scope.
func quantBody(rnd *rand.Rand, p string, depth int) *expr.Expr {
	g := &exprGen{rnd: rnd, params: []string{p}}
	return g.gen(depth)
}

func assertUnrolling(t *testing.T, name string, wrap func(p string, body *expr.Expr) *expr.Expr,
	expand func(concretions []*expr.Expr) *expr.Expr, fresh int, depth int, bodyDepth int) {
	t.Helper()
	rnd := rand.New(rand.NewSource(int64(expr.HashKey(name))))
	cache := NewCache()
	domain := []string{"v1", "v2"}
	for i := 0; i < fresh; i++ {
		domain = append(domain, fmt.Sprintf("w%d", i+1))
	}
	for i := 0; i < 25; i++ {
		body := quantBody(rnd, "p", bodyDepth)
		q := wrap("p", body)
		var concs []*expr.Expr
		for _, v := range domain {
			concs = append(concs, body.Subst("p", v))
		}
		u := expand(concs)
		// The word universe mentions only v1/v2; the extra domain values
		// exist solely as fresh representatives inside the expansion.
		sigma := lawSigma([]string{"v1", "v2"}, q)
		if len(sigma) == 0 {
			continue
		}
		if len(sigma) > 6 {
			sigma = sigma[:6]
		}
		for _, mode := range []struct {
			name string
			step stepper
		}{{"plain", plainStep}, {"memoized", cachedStep(cache)}} {
			if err := traceEquivalent(q, u, sigma, depth, mode.step); err != nil {
				t.Fatalf("%s (%s) violated for body #%d:\n  quantified: %s\n  unrolled:   %s\n  %v",
					name, mode.name, i, q, u, err)
			}
		}
	}
}

func TestStateLawAnyQUnrolling(t *testing.T) {
	assertUnrolling(t, "any p: y = y[v1] | y[v2] | y[w]",
		expr.AnyQ,
		func(cs []*expr.Expr) *expr.Expr { return expr.Or(cs...) },
		1, 4, 2)
}

func TestStateLawConQUnrolling(t *testing.T) {
	assertUnrolling(t, "conq p: y = y[v1] & y[v2] & y[w]",
		expr.ConQ,
		func(cs []*expr.Expr) *expr.Expr { return expr.And(cs...) },
		1, 4, 2)
}

func TestStateLawSyncQUnrolling(t *testing.T) {
	assertUnrolling(t, "syncq p: y = y[v1] @ y[v2] @ y[w]",
		expr.SyncQ,
		func(cs []*expr.Expr) *expr.Expr { return expr.Sync(cs...) },
		1, 4, 2)
}

func TestStateLawAllQUnrolling(t *testing.T) {
	// Depth-3 words can touch at most 3 distinct anonymous branches, so 3
	// fresh representatives suffice; small optional bodies keep the n-ary
	// shuffle tractable.
	assertUnrolling(t, "all p: y = y[v1] || y[v2] || y[w1..w3]",
		func(p string, body *expr.Expr) *expr.Expr { return expr.AllQ(p, expr.Option(body)) },
		func(cs []*expr.Expr) *expr.Expr {
			opts := make([]*expr.Expr, len(cs))
			for i, c := range cs {
				opts[i] = expr.Option(c)
			}
			return expr.Par(opts...)
		},
		3, 3, 1)
}

// plainRef is the tests' reference engine: the plain recursion
// Initial/Trans, with no cache anywhere.
type plainRef struct {
	e     *expr.Expr
	cur   State
	steps int
}

func newPlainRef(e *expr.Expr) *plainRef { return &plainRef{e: e, cur: Initial(e)} }

// step consumes a if Trans permits it and reports whether it did.
func (p *plainRef) step(a expr.Action) bool {
	next := Trans(p.cur, a)
	if next == nil {
		return false
	}
	p.cur = next
	p.steps++
	return true
}

func (p *plainRef) key() string { return stateKey(p.cur) }

// TestMemoizationPreservesSemantics drives random expressions through an
// engine and the plain recursion in lockstep: every step must agree on
// the tentative transition (Advance), acceptance, finality and the
// canonical state key. This is the direct behavior-preservation property
// of the hash-consing refactor (the law tests above additionally prove
// it across *different* expressions).
func TestMemoizationPreservesSemantics(t *testing.T) {
	rnd := rand.New(rand.NewSource(20010421))
	sigma := acts("a", "b", "x(v1)", "x(v2)", "y(v1)")
	var st CacheStats
	for i := 0; i < 300; i++ {
		g := &exprGen{rnd: rnd}
		e := g.gen(3)
		plain := newPlainRef(e)
		memo := MustEngine(e)
		for step := 0; step < 8; step++ {
			a := sigma[rnd.Intn(len(sigma))]
			if got, want := stateKey(memo.Advance(a).next), stateKey(Trans(plain.cur, a)); got != want {
				t.Fatalf("expr %s step %d (%s): Advance diverges:\n plain %s\n memo  %s", e, step, a, want, got)
			}
			okP := plain.step(a)
			errM := memo.Step(a)
			if okP != (errM == nil) {
				t.Fatalf("expr %s step %d (%s): plain ok=%v memo err=%v", e, step, a, okP, errM)
			}
			if Final(plain.cur) != memo.Final() {
				t.Fatalf("expr %s step %d: finality diverges", e, step)
			}
			if plain.key() != memo.StateKey() {
				t.Fatalf("expr %s step %d: state keys diverge:\n plain %s\n memo  %s",
					e, step, plain.key(), memo.StateKey())
			}
		}
		cs := memo.CacheStats()
		st.MemoHits += cs.MemoHits
		st.InternHits += cs.InternHits
	}
	if st.MemoHits == 0 || st.InternHits == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}

	// Shapes whose states share sub-states heavily, which random depth-3
	// expressions rarely build: here the engine's walk transitions each
	// shared sub-state once and hands the successor to every parent.
	repeat := func(n int, names ...string) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, names...)
		}
		return out
	}
	for _, c := range []struct {
		src  string
		word []expr.Action
	}{
		{"((a - b?)# - c)#", acts(append(repeat(14, "a"), repeat(4, "b", "c")...)...)},
		{"((a - (b - c?)#)# - d) | ((a - b)# - c)#", acts("a", "b", "a", "b", "c", "b", "a", "c", "b", "d", "c", "a")},
		{"all p: (call(p) - perform(p))*", acts("call(v1)", "call(v2)", "perform(v1)", "call(v3)",
			"perform(v3)", "call(v1)", "perform(v2)", "call(v4)", "perform(v1)", "perform(v4)", "perform(v4)")},
	} {
		e := parse.MustParse(c.src)
		plain, memo := newPlainRef(e), MustEngine(e)
		for step, a := range c.word {
			if got, want := stateKey(memo.Advance(a).next), stateKey(Trans(plain.cur, a)); got != want {
				t.Fatalf("%s step %d (%s): Advance diverges:\n plain %s\n memo  %s", c.src, step, a, want, got)
			}
			if okP, errM := plain.step(a), memo.Step(a); okP != (errM == nil) {
				t.Fatalf("%s step %d (%s): plain ok=%v memo err=%v", c.src, step, a, okP, errM)
			}
			if plain.key() != memo.StateKey() || Final(plain.cur) != memo.Final() || Size(plain.cur) != memo.StateSize() {
				t.Fatalf("%s step %d (%s): states diverge:\n plain %s (final %v, size %d)\n memo  %s (final %v, size %d)",
					c.src, step, a, plain.key(), Final(plain.cur), Size(plain.cur), memo.StateKey(), memo.Final(), memo.StateSize())
			}
		}
	}
}

// TestLawSigmaOrderIsStable: lawSigma lists a two-parameter atom's
// instances in one order, so FuzzSnapshotRoundTrip maps a word's bytes
// to the same actions in every run (it ranged over a map before).
func TestLawSigmaOrderIsStable(t *testing.T) {
	e := parse.MustParse("z($p, $q)")
	want := fmt.Sprint(lawSigma([]string{"v1", "v2", "v3"}, e))
	for i := 0; i < 20; i++ {
		if got := fmt.Sprint(lawSigma([]string{"v1", "v2", "v3"}, e)); got != want {
			t.Fatalf("call %d lists %s, the first listed %s", i, got, want)
		}
	}
}
