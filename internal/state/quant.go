package state

import (
	"slices"
	"strings"

	"repro/internal/expr"
)

// branch is one value-instantiated branch of a quantifier state: the
// value and a state over the quantifier's body with the parameter still
// free. τ̂ walks st with p bound to val (see sharing); a branch restored
// from a pre-v4 snapshot holds the substituted state instead, which
// binding leaves as it is.
type branch struct {
	val string
	st  State
	// h is the hash of st's key under p := val alone (hashBound): the
	// branch's part of the quantifier's shape, and at the top level the
	// hash ρ compares. 0 means not computed yet; successors carry it while
	// st is unchanged.
	h uint64
}

// hash returns the hash of the branch state under env with p bound to
// the branch's value. At the top level, where env binds nothing, that is
// the branch's h, computed once.
func (b *branch) hash(p string, env *expr.Env) uint64 {
	if env != nil {
		return hashBound(b.st, p, b.val, env)
	}
	if b.h == 0 {
		b.h = hashBound(b.st, p, b.val, nil)
	}
	return b.h
}

// caughtUp is ρ's release test of a quantifier with a generic branch:
// the branch's state, under the walk sh with p bound to its value, has
// the key of the generic state under gen, where p is unbound and its
// hash is gh. One node is equal under both bindings exactly when it does
// not name p; distinct nodes compare keys.
func (b *branch) caughtUp(p string, sh, gen sharing, generic State, gh uint64) bool {
	if b.hash(p, sh.env) != gh {
		return false
	}
	if sameState(b.st, generic) {
		return !mentions(generic, p)
	}
	return keyIn(b.st, sh.bind(p, b.val).env) == keyIn(generic, gen.env)
}

// branchCanAct reports whether the branch for value v can possibly
// consume the action: its atoms are the body's atoms with p := v, so a
// match requires either v among the action's values (a p-atom) or an
// atom of the body that matches with p unbound, under the environment
// free of the walk outside the branch (strictAlpha). Used to skip the
// overwhelming majority of branch transition attempts in uniformly
// quantified expressions.
func branchCanAct(v string, a expr.Action, strictAlpha *expr.Alphabet, free *expr.Env) bool {
	for _, arg := range a.Args {
		if !arg.Param && arg.Name == v {
			return true
		}
	}
	return strictAlpha.ContainsIn(a, free)
}

type branchSet []branch

func (bs branchSet) has(v string) bool {
	for _, b := range bs {
		if b.val == v {
			return true
		}
	}
	return false
}

func byVal(x, y branch) int { return strings.Compare(x.val, y.val) }

// canonical orders the branches of a new node by value and computes
// their hashes, which its shape names.
func (bs branchSet) canonical(p string) branchSet {
	slices.SortFunc(bs, byVal)
	for i := range bs {
		bs[i].hash(p, nil)
	}
	return bs
}

// write writes the branches as val=key pairs, each state's key rendered
// under env with p bound to the branch's value.
func (bs branchSet) write(w *sink, p string, env *expr.Env) {
	for i, b := range bs {
		if i > 0 {
			w.putc(',')
		}
		w.put(b.val)
		w.putc('=')
		w.bound(b.st, p, b.val, env)
	}
}

func (bs branchSet) allFinal() bool {
	for _, b := range bs {
		if !b.st.Final() {
			return false
		}
	}
	return true
}

func (bs branchSet) size() int {
	n := 0
	for _, b := range bs {
		n += b.st.Size()
	}
	return n
}

// internParts canonicalizes every branch state, preserving order; see
// canonEach.
func (bs branchSet) internParts(c *Cache) (branchSet, bool) {
	return canonEach(bs, func(b branch) (branch, bool) {
		st, changed := c.canonOf(b.st)
		b.st = st
		return b, changed
	})
}

// newValue reports the i-th argument of a as a value to fork a branch
// for: a concrete value that no earlier argument repeats and that has no
// branch in touched yet. Looping i over a's arguments visits the
// action's distinct new values in order, without building a list.
func newValue(a expr.Action, i int, touched branchSet) (string, bool) {
	arg := a.Args[i]
	if arg.Param {
		return "", false
	}
	for _, prev := range a.Args[:i] {
		if !prev.Param && prev.Name == arg.Name {
			return "", false
		}
	}
	if touched.has(arg.Name) {
		return "", false
	}
	return arg.Name, true
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// --- disjunction quantifier ("any p: y") ------------------------------
//
// Exactly one value of p is chosen and the entire word belongs to that
// value's branch. The state keeps one branch per value the word has
// committed to so far (they all consumed the whole word) plus a generic
// branch with p unbound representing every value not yet mentioned.
// An action mentioning a fresh value v forks a new branch: the generic
// state, walked with p bound to v.
type anyQState struct {
	e       *expr.Expr // the OpAnyQ node
	strictA *expr.Alphabet
	touched branchSet
	generic State // may be nil once dead
	// excluded lists values the generic branch can no longer stand for:
	// it consumed an action that some $p atom would have matched under
	// that binding, committing the not-yet-chosen value to differ (the
	// bound variant was forked as its own touched branch at that action).
	excluded []string // sorted
	node
}

func newAnyQState(e *expr.Expr) State {
	return sealed(&anyQState{e: e, strictA: expr.AlphabetOf(e.Kids[0]), generic: Initial(e.Kids[0])})
}

func (s *anyQState) Key() string { return keyIn(s, nil) }

func (s *anyQState) render(w *sink, env *expr.Env) {
	w.put("any<")
	w.expr(s.e, env)
	w.put(">{")
	s.touched.write(w, s.e.Param, env)
	w.putc('|')
	if s.generic == nil {
		w.putc('!')
	} else {
		w.bound(s.generic, s.e.Param, "", env)
		w.excl(s.excluded)
	}
	w.putc('}')
}

func (s *anyQState) Final() bool {
	if s.generic != nil && s.generic.Final() {
		return true
	}
	for _, b := range s.touched {
		if b.st.Final() {
			return true
		}
	}
	return false
}

func (s *anyQState) Size() int { return 1 + s.touched.size() + Size(s.generic) }

func (s *anyQState) trans(a expr.Action, sh sharing) State {
	p := s.e.Param
	gen := sh.free(p)
	var generic State
	var taint []string
	excluded := s.excluded
	if s.generic != nil {
		taint = sh.bindingMatches(s.strictA, p, a)
		generic = compress(gen.trans(s.generic, a))
		if generic != nil {
			// The generic branch consumed a with p free; it can no longer
			// stand for values under which a $p atom would have matched a
			// (those bound variants fork below, or are already touched).
			excluded = mergeExcl(excluded, taint)
		}
	}
	var gh uint64 // the generic state's hash, which a branch that caught up with it has
	if generic != nil {
		gh = hashIn(generic, gen.env)
	}
	// ρ: a branch whose state caught up with the generic branch again is
	// indistinguishable from an untouched one and is released — unless
	// its value is excluded from the generic branch, in which case the
	// generic cannot stand in for it later.
	released := func(b *branch) bool {
		return generic != nil && !containsStr(excluded, b.val) && b.caughtUp(p, sh, gen, generic, gh)
	}
	var touched branchSet
	for _, b := range s.touched {
		if !branchCanAct(b.val, a, s.strictA, gen.env) {
			continue // the action cannot belong to this branch's word
		}
		bs := sh.bind(p, b.val)
		nst := bs.trans(b.st, a)
		if nst == nil {
			continue
		}
		if nb := (branch{val: b.val, st: compress(nst)}); !released(&nb) {
			touched = append(touched, nb)
		}
	}
	if s.generic != nil {
		for i := range a.Args {
			v, ok := newValue(a, i, s.touched)
			// An excluded value cannot fork from the generic branch: the
			// generic's history was consumed under "p ≠ v". And by the
			// fork rule (see allQState.trans), unless a $p atom matches a
			// under p := v, the bound branch fails where the generic one
			// did.
			if !ok || containsStr(s.excluded, v) || generic == nil && !containsStr(taint, v) {
				continue
			}
			bs := sh.bind(p, v)
			nst := bs.trans(s.generic, a)
			if nst == nil {
				continue
			}
			// If binding v made no observable difference the branch keeps
			// riding with the generic one (they evolve in lockstep until
			// an action actually mentions v in a parameter position).
			if nb := (branch{val: v, st: compress(nst)}); !released(&nb) {
				touched = append(touched, nb)
			}
		}
	}
	if len(touched) == 0 && generic == nil {
		return nil
	}
	return sealed(&anyQState{e: s.e, strictA: s.strictA, touched: touched.canonical(p), generic: generic, excluded: excluded})
}

func (s *anyQState) internParts(c *Cache) State {
	touched, tc := s.touched.internParts(c)
	generic, gc := c.canonOf(s.generic)
	return reuse(s, tc || gc, func(n *anyQState) { n.touched, n.generic = touched, generic })
}

func (s *anyQState) inert() bool {
	if s.generic != nil {
		// The generic branch can fork new value branches; claiming
		// inertness would require knowing no substitution can move it.
		return false
	}
	for _, b := range s.touched {
		if !b.st.inert() {
			return false
		}
	}
	return true
}

// --- conjunction quantifier ("conq p: y") -----------------------------
//
// The word must be accepted by the branch of *every* value of the
// infinite universe. Untouched values all share the generic branch; a
// single failing branch (touched or generic) invalidates the state.
type conQState struct {
	e       *expr.Expr
	strictA *expr.Alphabet
	touched branchSet
	generic State
	node
}

func newConQState(e *expr.Expr) State {
	return sealed(&conQState{e: e, strictA: expr.AlphabetOf(e.Kids[0]), generic: Initial(e.Kids[0])})
}

func (s *conQState) Key() string { return keyIn(s, nil) }

func (s *conQState) render(w *sink, env *expr.Env) {
	renderGeneric(w, "conq<", s.e, s.touched, s.generic, env)
}

// renderGeneric writes the key of a quantifier state made of touched
// branches and an always-live generic branch under env.
func renderGeneric(w *sink, open string, e *expr.Expr, touched branchSet, generic State, env *expr.Env) {
	w.put(open)
	w.expr(e, env)
	w.put(">{")
	touched.write(w, e.Param, env)
	w.putc('|')
	w.bound(generic, e.Param, "", env)
	w.putc('}')
}

func (s *conQState) Final() bool {
	return s.generic.Final() && s.touched.allFinal()
}

func (s *conQState) Size() int { return 1 + s.touched.size() + s.generic.Size() }

func (s *conQState) trans(a expr.Action, sh sharing) State {
	p := s.e.Param
	gen := sh.free(p)
	generic := gen.trans(s.generic, a)
	if generic == nil {
		return nil
	}
	generic = compress(generic)
	gh := hashIn(generic, gen.env)
	var touched branchSet
	for _, b := range s.touched {
		// Every branch must accept every action; a branch that cannot
		// possibly act kills the state without a deep descent.
		if !branchCanAct(b.val, a, s.strictA, gen.env) {
			return nil
		}
		bs := sh.bind(p, b.val)
		nst := bs.trans(b.st, a)
		if nst == nil {
			return nil
		}
		// ρ: release branches indistinguishable from the generic one.
		if nb := (branch{val: b.val, st: compress(nst)}); !nb.caughtUp(p, sh, gen, generic, gh) {
			touched = append(touched, nb)
		}
	}
	for i := range a.Args {
		v, ok := newValue(a, i, s.touched)
		if !ok {
			continue
		}
		bs := sh.bind(p, v)
		nst := bs.trans(s.generic, a)
		if nst == nil {
			return nil
		}
		// If binding v made no observable difference, the branch can keep
		// riding with the generic one.
		if nb := (branch{val: v, st: compress(nst)}); !nb.caughtUp(p, sh, gen, generic, gh) {
			touched = append(touched, nb)
		}
	}
	return sealed(&conQState{e: s.e, strictA: s.strictA, touched: touched.canonical(p), generic: generic})
}

func (s *conQState) inert() bool {
	// Any action must be accepted by all branches including generic; if
	// the generic branch is inert every action kills the state.
	return s.generic.inert()
}

func (s *conQState) internParts(c *Cache) State {
	touched, tc := s.touched.internParts(c)
	generic, gc := c.canonOf(s.generic)
	return reuse(s, tc || gc, func(n *conQState) { n.touched, n.generic = touched, generic })
}

// --- synchronization quantifier ("syncq p: y") ------------------------
//
// For every value ω, the projection of the word onto α(y_ω) must be
// acceptable to that branch. Untouched branches only ever see actions
// matching parameter-free atoms, and all see the same ones, so a single
// generic branch represents them in lockstep. Branch v's alphabet α(y_v)
// is the body's alphabet read with p bound to v.
type syncQState struct {
	e       *expr.Expr
	whole   *expr.Alphabet // α of the quantifier (p ranges as wildcard)
	touched branchSet
	generic State
	genA    *expr.Alphabet // α of the body with p free
	node
}

func newSyncQState(e *expr.Expr) State {
	return sealed(&syncQState{
		e:       e,
		whole:   expr.AlphabetOf(e),
		generic: Initial(e.Kids[0]),
		genA:    expr.AlphabetOf(e.Kids[0]),
	})
}

func (s *syncQState) Key() string { return keyIn(s, nil) }

func (s *syncQState) render(w *sink, env *expr.Env) {
	renderGeneric(w, "syncq<", s.e, s.touched, s.generic, env)
}

func (s *syncQState) Final() bool {
	return s.generic.Final() && s.touched.allFinal()
}

func (s *syncQState) Size() int { return 1 + s.touched.size() + s.generic.Size() }

func (s *syncQState) trans(a expr.Action, sh sharing) State {
	if !s.whole.ContainsIn(a, sh.env) {
		return nil // a ∉ α(x)
	}
	p := s.e.Param
	gen := sh.free(p)
	generic := s.generic
	if s.takesPart(a, gen) {
		generic = gen.trans(s.generic, a)
		if generic == nil {
			return nil
		}
		generic = compress(generic)
	}
	gh := hashIn(generic, gen.env)
	var touched branchSet
	for _, b := range s.touched {
		bs := sh.bind(p, b.val)
		if s.takesPart(a, bs) {
			nst := bs.trans(b.st, a)
			if nst == nil {
				return nil
			}
			b = branch{val: b.val, st: compress(nst)}
		}
		// ρ: release touched branches that caught up with the generic
		// one; they are indistinguishable from untouched branches again.
		if !b.caughtUp(p, sh, gen, generic, gh) {
			touched = append(touched, b)
		}
	}
	for i := range a.Args {
		v, ok := newValue(a, i, s.touched)
		if !ok {
			continue
		}
		bs := sh.bind(p, v)
		if !s.takesPart(a, bs) {
			continue // branch v is not involved and stays generic
		}
		nst := bs.trans(s.generic, a)
		if nst == nil {
			return nil
		}
		// Binding made no difference: branch v keeps riding with the
		// generic branch.
		if nb := (branch{val: v, st: compress(nst)}); !nb.caughtUp(p, sh, gen, generic, gh) {
			touched = append(touched, nb)
		}
	}
	return sealed(&syncQState{e: s.e, whole: s.whole, touched: touched.canonical(p), generic: generic, genA: s.genA})
}

// takesPart reports a ∈ α(y) under the walk's binding: whether the
// branch the walk is in takes part in a.
func (s *syncQState) takesPart(a expr.Action, bs sharing) bool {
	return s.genA.ContainsIn(a, bs.env)
}

// involved reports a ∈ α(y_v), whether branch v of a top-level syncQ
// takes part in a, without building y_v.
func (s *syncQState) involved(a expr.Action, v string) bool {
	return s.takesPart(a, sharing{}.bind(s.e.Param, v))
}

func (s *syncQState) inert() bool { return false }

func (s *syncQState) internParts(c *Cache) State {
	touched, tc := s.touched.internParts(c)
	generic, gc := c.canonOf(s.generic)
	return reuse(s, tc || gc, func(n *syncQState) { n.touched, n.generic = touched, generic })
}
