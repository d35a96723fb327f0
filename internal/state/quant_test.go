package state

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/paper"
	"repro/internal/parse"
	"repro/internal/semantics"
)

// Tests of the quantifier transition path: the release key a named allQ
// branch carries, the fork rule that skips values an action cannot bind,
// and the regressions they must not reintroduce.

// fig7Step is step i of four interleaved clients on the coupled graph of
// Fig 7: client i%4 sends prepare, call, perform for a fresh patient on
// its own examination kind, so no patient recurs and the memo never hits.
func fig7Step(i int) expr.Action {
	c, k := i%4, i/4
	p, x := fmt.Sprintf("c%dv%d", c, k/3), fmt.Sprintf("x%d", c)
	switch k % 3 {
	case 0:
		return paper.PrepareAct(p, x)
	case 1:
		return paper.CallAct(p, x)
	}
	return paper.PerformAct(p, x)
}

// fig3Step drives the patient constraint alone: prepare, call, perform
// cycles over a rolling patient on one examination.
func fig3Step(i int) expr.Action {
	p := paper.Patient(i / 3)
	switch i % 3 {
	case 0:
		return paper.PrepareAct(p, paper.ExamSono)
	case 1:
		return paper.CallAct(p, paper.ExamSono)
	}
	return paper.PerformAct(p, paper.ExamSono)
}

// fig6Step drives the capacity restriction: call, perform per patient.
func fig6Step(i int) expr.Action {
	p := paper.Patient(i / 2)
	if i%2 == 0 {
		return paper.CallAct(p, paper.ExamSono)
	}
	return paper.PerformAct(p, paper.ExamSono)
}

// TestFig7StepAllocations pins the cost of one τ̂ step on the paper's own
// workload, where every value is fresh: each step binds new quantifier
// branches and releases finished ones, so the step is all substitution
// and release work, none of it memoized.
func TestFig7StepAllocations(t *testing.T) {
	const warm, runs = 2000, 200
	en := MustEngine(paper.Fig7Coupled())
	i := 0
	step := func() {
		if err := en.Step(fig7Step(i)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		i++
	}
	for i < warm {
		step()
	}
	if n := en.StateSize(); n != 83 {
		t.Fatalf("state size after %d steps: %d, want 83", warm, n)
	}
	allocs := testing.AllocsPerRun(runs, step)
	t.Logf("Fig 7 step: %.0f allocations", allocs)
	if allocs > 60 {
		t.Fatalf("Fig 7 step: %.0f allocations, want ≤ 60", allocs)
	}
}

// TestFig6StepAllocations pins the cost of a step of the Fig 6 capacity
// restriction under Fig 7's traffic (fig7Step without the prepares,
// which the capacity branch never sees). Every examination's branch is
// released after its perform and bound again at the next call, so the
// state is one node between rounds and every step binds or releases: a
// binding that copied the body would cost its substitution each time.
func TestFig6StepAllocations(t *testing.T) {
	const warm, runs = 2000, 200
	en := MustEngine(paper.Fig6CapacityRestriction())
	i := 0
	step := func() {
		a := fig7Step(i)
		for a.Name == paper.ActPrepare {
			i++
			a = fig7Step(i)
		}
		if err := en.Step(a); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		i++
	}
	for en.Steps() < warm {
		step()
	}
	if n := en.StateSize(); n != 1 {
		t.Fatalf("state size after %d steps: %d, want 1", warm, n)
	}
	allocs := testing.AllocsPerRun(runs, step)
	t.Logf("Fig 6 step: %.0f allocations", allocs)
	if allocs > 40 {
		t.Fatalf("Fig 6 step: %.0f allocations, want ≤ 40", allocs)
	}
}

// TestStepsRenderNoKey: τ̂ identifies quantifier branches by their
// binding-aware hashes, so a steady-state step of Fig 6 or Fig 7 renders
// no key at all: not for a new branch's identity, not for ρ's release
// test and not for the any generic.
func TestStepsRenderNoKey(t *testing.T) {
	for _, c := range []struct {
		name string
		e    *expr.Expr
		skip string // an action the expression never sees
	}{
		{"fig7", paper.Fig7Coupled(), ""},
		{"fig6", paper.Fig6CapacityRestriction(), paper.ActPrepare},
	} {
		en := MustEngine(c.e)
		i := 0
		step := func() {
			a := fig7Step(i)
			for i++; a.Name == c.skip; i++ {
				a = fig7Step(i)
			}
			if err := en.Step(a); err != nil {
				t.Fatalf("%s step %d: %v", c.name, i, err)
			}
		}
		for en.Steps() < 2000 {
			step()
		}
		before := keysRendered.Load()
		for n := en.Steps() + 200; en.Steps() < n; {
			step()
		}
		if n := keysRendered.Load() - before; n != 0 {
			t.Errorf("%s: 200 steps rendered %d keys, want 0", c.name, n)
		}
	}
}

// TestBindingCollisionsStayExact: a body that names the value v1
// literally, as all p: (x($p) | x(v1))*, has distinct template states
// with one key under p := v1, whose branch hashes therefore match (in
// conq p: (x($p) - y) | (x(v1) - y), a branch for v1 holds both seqs,
// the generic branch only the second, and both keys are
// or[seq<x(v1) - y>[…]]). Identity must then fall back to keys: every
// canonical node is the one its key names, ρ's release test answers as
// comparing keys would, and every state has the size the engine reaches
// when it compares every branch by key (every hash 1).
func TestBindingCollisionsStayExact(t *testing.T) {
	t.Cleanup(func() { sameIDs = false })
	sigma := acts("x(v1)", "x(v2)", "y", "a", "z(v1)")
	rnd := rand.New(rand.NewSource(40))
	for _, c := range []struct {
		src     string
		collide bool // distinct states have one key and one hash
	}{
		{"all p: (x($p) | x(v1))*", false},
		{"all p: ((x($p) - y) | (x(v1) - y))*", false},
		{"any p: (x($p) - y) | (x(v1) - y)", false},
		{"conq p: (x($p) - y) | (x(v1) - y)", true},
		{"conq p: (x($p) - y)# | (x(v1) - y)#", true},
		{"syncq p: ((x($p) - y) | (x(v1) - y) | (a - x(v1) - y))?", true},
		// A branch that is not final like σ(y), and one whose state is
		// the generic one's, with p in its key (z(v1) forks v1 unchanged).
		{"all p: x($p) - y", false},
		{"conq p: (x($p) | z(v1))*", false},
	} {
		src := c.src
		e := parse.MustParse(src)
		words := [][]expr.Action{acts("x(v1)", "x(v2)", "y", "x(v1)", "x(v1)", "y", "x(v3)", "x(v1)", "y", "y")}
		for len(words) < 40 {
			w := make([]expr.Action, 8)
			for i := range w {
				w[i] = sigma[rnd.Intn(len(sigma))]
			}
			words = append(words, w)
		}
		var sizes [2][]int
		confirmed := int64(0)
		for i, collide := range []bool{false, true} {
			sameIDs = collide
			for _, word := range words {
				c := NewCache()
				s, plain := c.Canon(Initial(e)), Initial(e)
				for _, a := range word {
					before := keysRendered.Load()
					next := c.Transition(s, a)
					if !collide {
						confirmed += keysRendered.Load() - before
					}
					if p := Trans(plain, a); next == nil || p == nil {
						if next != p {
							t.Fatalf("%s: %s permitted by one engine only", src, a)
						}
						continue
					} else if s, plain = next, p; plain.Key() != s.Key() || c.Canon(plain) != s {
						t.Fatalf("%s after %s: canonical %s, plain %s", src, a, s.Key(), plain.Key())
					}
					sizes[i] = append(sizes[i], s.Size())
					checkReleases(t, s)
				}
				byKey := make(map[string]State)
				for _, n := range c.table.states() {
					if o, ok := byKey[n.Key()]; ok && o != n {
						t.Fatalf("%s: two canonical nodes have the key %s", src, n.Key())
					}
					byKey[n.Key()] = n
				}
			}
		}
		if !slices.Equal(sizes[0], sizes[1]) {
			t.Errorf("%s: state sizes %v, with every branch compared by key %v", src, sizes[0], sizes[1])
		}
		if c.collide && confirmed == 0 {
			t.Errorf("%s: no match of branch hashes was confirmed by keys", src)
		}
	}
}

// checkReleases checks ρ's release test at the top quantifier of s
// against comparing keys: an allQ branch is released as it equals a
// fresh branch for its value, and a branch of the other quantifiers is
// kept only as it differs from the generic one (or, for any, the
// generic no longer stands for its value).
func checkReleases(t *testing.T, s State) {
	t.Helper()
	var e *expr.Expr
	var touched branchSet
	var generic State
	var excluded []string
	switch q := s.(type) {
	case *allQState:
		for _, alt := range q.alts {
			for _, b := range alt.named {
				env := &expr.Env{P: q.e.Param, V: b.val}
				want := b.st.Final() == q.nullable && keyIn(b.st, env) == keyIn(q.initial(), env)
				if got := q.releases(&b, q.e.Param, sharing{}); got != want {
					t.Fatalf("%s: branch %s releases %t, keys say %t", q.Key(), b.val, got, want)
				}
			}
		}
		return
	case *anyQState:
		e, touched, generic, excluded = q.e, q.touched, q.generic, q.excluded
	case *conQState:
		e, touched, generic = q.e, q.touched, q.generic
	case *syncQState:
		e, touched, generic = q.e, q.touched, q.generic
	default:
		return
	}
	for _, b := range touched {
		if generic != nil && !slices.Contains(excluded, b.val) && keyIn(b.st, &expr.Env{P: e.Param, V: b.val}) == generic.Key() {
			t.Fatalf("%s: branch %s has the generic branch's key and was kept", s.Key(), b.val)
		}
	}
}

// TestQuantifierStateKeysUnchanged pins the digest of StateKey() after
// every step of three figure workloads. The digests were recorded before
// branches carried their release key and before forks were filtered by
// the fork rule: both only skip work, so every state, and hence every
// snapshot, must come out identical.
func TestQuantifierStateKeysUnchanged(t *testing.T) {
	const steps = 3000
	cases := []struct {
		name string
		e    *expr.Expr
		gen  func(int) expr.Action
		want string
	}{
		{"fig7", paper.Fig7Coupled(), fig7Step, "b06f0a3b16ee6da5fe6e1151ff99b1bd8f89a7cb7f870d8b6758a6e2a3c49927"},
		{"fig3", paper.Fig3PatientConstraint(), fig3Step, "512eb38f23ba55849c335c170ec4719af7ac856cd8d98b60afaf642c53c10071"},
		{"fig6", paper.Fig6CapacityRestriction(), fig6Step, "f28f05715b71f43c184f671a21645f5b7e856729297b6da5767bb98d7d8b273a"},
	}
	for _, c := range cases {
		en := MustEngine(c.e)
		h := sha256.New()
		for i := 0; i < steps; i++ {
			if err := en.Step(c.gen(i)); err != nil {
				t.Fatalf("%s step %d: %v", c.name, i, err)
			}
			h.Write([]byte(en.StateKey()))
			h.Write([]byte{0})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: state key digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestAllQReleaseExcludesAnonBranches: a named branch released by ρ
// stands for an untouched value again, but only for branches that start
// after it. An anonymous branch kept beside it consumed its actions
// before the released branch's history ended, so it is a different
// branch and can never take the released value. The differential fuzzer
// found the word below accepted as complete by binding both anonymous
// x(v1) branches to v2, one after the other.
func TestAllQReleaseExcludesAnonBranches(t *testing.T) {
	e := parse.MustParse("all p0: (x($p0) || x(v1))*")
	w := acts("x(v1)", "x(v1)", "x(v2)", "x(v2)", "x(v1)", "x(v3)")
	en := MustEngine(e)
	o := semantics.New(e, len(w))
	for i := 0; i <= len(w); i++ {
		got := en.Word(w[:i])
		want := Verdict(o.Verdict(semantics.Word(w[:i])))
		if got != want {
			t.Fatalf("prefix %v: engine=%v oracle=%v", w[:i], got, want)
		}
	}
	if v := en.Word(w[:4]); v != Partial {
		t.Fatalf("two anonymous branches bound to one value: got %v, want Partial", v)
	}
}

// TestSyncQInvolvedMatchesSubstAlphabet: syncQ decides whether a fresh
// value's branch is involved in an action from the body's alphabet with
// p free and its binding matches, instead of building α(y_v). The two
// predicates must agree on every value the action mentions.
func TestSyncQInvolvedMatchesSubstAlphabet(t *testing.T) {
	bodies := []string{
		"x($p)",
		"x($p) - a",
		"x(v1) | y($p)",
		"x($p) @ mult(2, x(v2))",
		"any q: x($q) - y($p)",
		"any p: x($p)",
		"(x($p) || a)* @ b",
	}
	sigma := acts("a", "b", "x(v1)", "x(v2)", "y(v1)", "y(v2)", "z(v1)")
	for _, src := range bodies {
		e := parse.MustParse("syncq p: " + src)
		s := Initial(e).(*syncQState)
		for _, a := range sigma {
			for _, v := range a.Values() {
				want := expr.AlphabetOf(e.Kids[0].Subst("p", v)).Contains(a)
				if got := s.involved(a, v); got != want {
					t.Errorf("%s: involved(%s, %s) = %v, α(y_%s) contains it: %v", src, a, v, got, v, want)
				}
			}
		}
	}
}

// TestSyncKeyNamesOperandAlphabets: a coupling's key must tell apart
// operands whose states agree but whose alphabets do not, or ρ's dedup
// and the intern table merge two couplings that treat an action
// differently. Both words were found wrong: the first by the
// differential fuzzer (the v1 and v2 branches' couplings were interned
// as one, and v1's then passed x(v1) by), the second with no quantifier
// at all (the or kept the coupling whose finished left operand must
// take x(v2)).
func TestSyncKeyNamesOperandAlphabets(t *testing.T) {
	cases := []struct {
		src  string
		word []expr.Action
	}{
		{"all p0: (x($p0) @ x(v1) || x(v1))?", acts("x(v2)", "x(v1)", "x(v1)", "x(v1)", "x(v1)")},
		{"((a | x(v2)) @ (b || x(v2))) | ((a | a) @ (b || x(v2)))", acts("a", "x(v2)", "b")},
	}
	for _, c := range cases {
		e := parse.MustParse(c.src)
		en := MustEngine(e)
		o := semantics.New(e, len(c.word))
		s := Initial(e)
		for i := 0; i <= len(c.word); i++ {
			if i > 0 {
				s = Trans(s, c.word[i-1])
			}
			want := Verdict(o.Verdict(semantics.Word(c.word[:i])))
			plain := Illegal
			if s != nil {
				plain = Partial
				if s.Final() {
					plain = Complete
				}
			}
			if got := en.Word(c.word[:i]); got != want || plain != want {
				t.Errorf("%s prefix %v: engine=%v plain=%v oracle=%v", c.src, c.word[:i], got, plain, want)
			}
		}
	}
}

// forBranches calls f for every quantifier branch reachable in s, with
// the quantifier's parameter.
func forBranches(s State, f func(p string, b branch)) {
	var kids []State
	branches := func(p string, bs branchSet) {
		for _, b := range bs {
			f(p, b)
			kids = append(kids, b.st)
		}
	}
	switch st := s.(type) {
	case *orState:
		kids = st.kids
	case *andState:
		kids = st.kids
	case *syncState:
		kids = st.kids
	case *seqState:
		for _, a := range st.alts {
			kids = append(kids, a.st)
		}
	case *seqIterState:
		kids = st.insts
	case *parState:
		kids = slices.Concat(st.alts...)
	case *multState:
		kids = slices.Concat(st.alts...)
	case *parIterState:
		kids = slices.Concat(st.alts...)
	case *anyQState:
		if st.generic != nil {
			kids = append(kids, st.generic)
		}
		branches(st.e.Param, st.touched)
	case *conQState:
		kids = append(kids, st.generic)
		branches(st.e.Param, st.touched)
	case *syncQState:
		kids = append(kids, st.generic)
		branches(st.e.Param, st.touched)
	case *allQState:
		for _, a := range st.alts {
			branches(st.e.Param, a.named)
			for _, ab := range a.anon {
				kids = append(kids, ab.st)
			}
		}
	}
	for _, k := range kids {
		forBranches(k, f)
	}
}

// reboundSrcs rebind $p inside a branch: any p inside all p, two-
// parameter atoms, and mult, conq and syncq bodies. FuzzSnapshotRoundTrip
// seeds with them too.
var reboundSrcs = []string{
	"all p: (any q: z($p,$q) - z($q,$p))*",
	"all p: x($p) - (any p: z($p,v1))",
	"all p: (x($p) | x(v1))* || (all q: z($p,$q)?)",
	"any p: (x($p) || x(v1))# @ (syncq q: z($q,$p)*)",
	"conq p: (x($p) | x(v2) | (all p: z($p,v2)?))*",
	"all p: mult(2, (any q: z($p,$q) - x($q))*)",
	"all p: (all q: (z($p,$q) || z($q,$p))?)?",
}

// TestBranchKeysRenderSubstitution: a branch holds a state over the body
// with its parameter free, and its key is that state's key rendered
// under the binding. The rendering must be the key of the substituted
// state — what the branch held before binding walked the template —
// including where binding makes distinct states equal or reorders
// them, and under shadowing, and so must its hash; and a snapshot,
// which stores branches as they are, must restore to the same keys and
// go on identically.
func TestBranchKeysRenderSubstitution(t *testing.T) {
	srcs := reboundSrcs
	sigma := []expr.Action{
		ca("x", "v1"), ca("x", "v2"), ca("z", "v1", "v2"), ca("z", "v2", "v1"),
		ca("z", "v1", "v1"), ca("z", "v2", "v2"), ca("z", "v2", "v3"), ca("x", "v3"),
	}
	rnd := rand.New(rand.NewSource(35))
	checked := 0
	for _, src := range srcs {
		e := parse.MustParse(src)
		for w := 0; w < 40; w++ {
			en := MustEngine(e)
			for step := 0; step < 6; step++ {
				a := sigma[rnd.Intn(len(sigma))]
				if en.Step(a) != nil {
					continue
				}
				forBranches(en.cur, func(p string, b branch) {
					checked++
					ref := substRef(b.st, p, b.val)
					got, want := keyIn(b.st, &expr.Env{P: p, V: b.val}), ref.Key()
					if got != want {
						t.Fatalf("%s: branch %s=%s renders %s, substituted key %s", src, p, b.val, got, want)
					}
					// The branch's hash, which it carries, is the substituted
					// state's, and binding p changes the key where p is named.
					if h := hashBound(b.st, p, b.val, nil); h != hashIn(ref, nil) || b.h != 0 && b.h != h {
						t.Fatalf("%s: branch %s=%s hashes to %x and carries %x, substituted state %x", src, p, b.val, h, b.h, hashIn(ref, nil))
					}
					if m := mentions(b.st, p); m != (got != b.st.Key()) {
						t.Fatalf("%s: branch %s=%s: mentions %t, but its key under the binding is %s, unbound %s", src, p, b.val, m, got, b.st.Key())
					}
				})
				data, err := en.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				back, err := RestoreEngine(e, data)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				if back.StateKey() != en.StateKey() {
					t.Fatalf("%s: restored key %s, want %s", src, back.StateKey(), en.StateKey())
				}
				for _, next := range sigma {
					if got, want := stateKey(back.Advance(next).next), stateKey(en.Advance(next).next); got != want {
						t.Fatalf("%s + %s: restored engine reaches %s, live engine %s", src, next, got, want)
					}
				}
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d branches checked", checked)
	}
	t.Logf("%d branch keys checked", checked)
}

// substRef is the tests' reference substitution: the state of the
// substituted body y_v that a branch over y with p free stands for,
// built by replacing p := v throughout, as the engine's branches were
// built before they stayed parametric.
func substRef(s State, p, v string) State {
	all := func(ss []State) []State {
		out := make([]State, len(ss))
		for i, s := range ss {
			out[i] = substRef(s, p, v)
		}
		return out
	}
	alts := func(alts [][]State, keepDup bool) [][]State {
		out := make([][]State, len(alts))
		for i, alt := range alts {
			if out[i] = all(alt); keepDup {
				out[i] = sortStatesKeepDup(out[i])
			}
		}
		return sortDedupAlts(out, keepDup)
	}
	branches := func(bs branchSet, q string) branchSet {
		out := make(branchSet, len(bs))
		for i, b := range bs {
			out[i] = branch{val: b.val, st: substRef(b.st, p, v)}
		}
		return out.canonical(q)
	}
	switch st := s.(type) {
	case emptyState:
		return s
	case *atomState:
		return newAtomState(st.atom.Subst(p, v), st.done)
	case *orState:
		return newOrState(all(st.kids))
	case *andState:
		return newAndState(all(st.kids))
	case *seqState:
		if !st.e.HasFreeParam(p) {
			return s
		}
		ns := &seqState{e: st.e.Subst(p, v)}
		as := make([]seqAlt, len(st.alts))
		for i, a := range st.alts {
			as[i] = seqAlt{a.idx, substRef(a.st, p, v)}
		}
		ns.alts = ns.close(as)
		return sealed(ns)
	case *seqIterState:
		if !st.y.HasFreeParam(p) {
			return s
		}
		return sealed(&seqIterState{sigma: sigma{y: st.y.Subst(p, v)}, insts: sortDedupStates(all(st.insts)), boundary: st.boundary})
	case *parState:
		return sealed(&parState{alts: alts(st.alts, false)})
	case *multState:
		return sealed(&multState{alts: alts(st.alts, true)})
	case *parIterState:
		if !st.y.HasFreeParam(p) {
			return s
		}
		return sealed(&parIterState{sigma: sigma{y: st.y.Subst(p, v)}, alts: alts(st.alts, true)})
	case *syncState:
		ns := &syncState{}
		for i, k := range st.kidExprs {
			ke := k.Subst(p, v)
			ns.kidExprs = append(ns.kidExprs, ke)
			ns.kids = append(ns.kids, substRef(st.kids[i], p, v))
			ns.alphas = append(ns.alphas, expr.AlphabetOf(ke))
		}
		return sealed(ns)
	}
	var e *expr.Expr
	switch st := s.(type) {
	case *anyQState:
		e = st.e
	case *conQState:
		e = st.e
	case *syncQState:
		e = st.e
	case *allQState:
		e = st.e
	}
	if !e.HasFreeParam(p) {
		return s
	}
	ne := e.Subst(p, v)
	body := ne.Kids[0]
	switch st := s.(type) {
	case *anyQState:
		var generic State
		if st.generic != nil {
			generic = substRef(st.generic, p, v)
		}
		return sealed(&anyQState{e: ne, strictA: expr.AlphabetOf(body), touched: branches(st.touched, ne.Param), generic: generic, excluded: st.excluded})
	case *conQState:
		return sealed(&conQState{e: ne, strictA: expr.AlphabetOf(body), touched: branches(st.touched, ne.Param), generic: substRef(st.generic, p, v)})
	case *syncQState:
		return sealed(&syncQState{e: ne, whole: expr.AlphabetOf(ne), touched: branches(st.touched, ne.Param), generic: substRef(st.generic, p, v), genA: expr.AlphabetOf(body)})
	case *allQState:
		var as []allQAlt
		for _, a := range st.alts {
			anon := make([]anonBranch, len(a.anon))
			for j, ab := range a.anon {
				anon[j] = anonBranch{st: substRef(ab.st, p, v), excl: ab.excl}
			}
			as = append(as, allQAlt{named: branches(a.named, ne.Param), anon: sortAnon(anon)})
		}
		// Substitution can make alternatives equal that ρ kept apart.
		return sealed(&allQState{e: ne, sigma: sigma{y: body}, strictA: expr.AlphabetOf(body), nullable: st.nullable, alts: sortDedupQAlts(as, ne.Param)})
	}
	panic(fmt.Sprintf("substRef: %T", s))
}

// TestStateSizeCountsTemplateNodes: a branch's state is the body's state
// with the parameter free, and Size counts its nodes as they are. A
// snapshot writes the branch as it is, so the restored engine counts the
// same nodes. A version-3 snapshot wrote the substituted state: where
// binding makes two nodes of a set equal, as or[-x($p),-x(v1)] under
// p := v1, the engine restored from it counts one node less, under the
// same key. testdata/template_v3.json is that snapshot, written by the
// version-3 encoder after z(v1).
func TestStateSizeCountsTemplateNodes(t *testing.T) {
	e := parse.MustParse("all p: z($p) - (x($p) | x(v1))")
	en := MustEngine(e)
	if err := en.Step(ca("z", "v1")); err != nil {
		t.Fatal(err)
	}
	data, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		size int
	}{
		{"v4", data, 6},
		{"v3", readGolden(t, "template_v3.json"), 5},
	} {
		back, err := RestoreEngine(e, tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back.StateKey() != en.StateKey() {
			t.Fatalf("%s: restored key %s, want %s", tc.name, back.StateKey(), en.StateKey())
		}
		if live, restored := en.StateSize(), back.StateSize(); live != 6 || restored != tc.size {
			t.Fatalf("%s: state size: live %d, restored %d; want 6 and %d", tc.name, live, restored, tc.size)
		}
	}
}
