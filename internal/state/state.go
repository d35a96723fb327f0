// Package state implements the operational semantics of interaction
// expressions (Sec 4 and 5 of the paper): the initial-state function σ,
// the optimized state-transition function τ̂ = ρ∘τ, and the finality
// predicate ϕ. The validity predicate ψ is represented by the nil state,
// exactly as the paper's implementation section prescribes: the optimizer
// ρ recognizes invalid states and maps them to nil, so a transition
// returning nil means "the extended word is not a partial word".
//
// States are immutable, hierarchically structured values mirroring the
// expression tree. Nondeterministic choices that the descriptive
// traversal semantics leaves open (where a walker might be) are
// represented as alternative sets, deduplicated by structural ids (see
// shape.go); this is the generalization of the paper's parallel-composition example
// (states [∥, A] with alternative pairs) to all operators.
//
// Quantifier states are finite despite ranging over the infinite value
// universe Ω: a quantifier state tracks a branch per *touched* value plus
// one *generic* branch in which the parameter is still unbound and which
// represents all untouched values at once. Binding happens lazily when a
// concrete action mentions a new value (see quant.go and allq.go). This
// reconstructs the auxiliary theorem of Sec 4 ("quantifier expressions,
// though constituting conceptually infinite expressions, can nevertheless
// be implemented using finite states").
//
// A branch stays parametric: it is the pair of its value v and a state
// over the quantifier's body y with p still free, never a state of the
// substituted body y_v. τ̂ binds p := v while it walks the branch (see
// sharing), and a branch's key is its state's key rendered under that
// binding (keyIn), which is the key the substituted state would have;
// the branch is identified by that key's hash (hashBound), which needs no
// rendering. So the branches of different values in the same phase are
// one state, and binding a value costs a walk, not a copy of the body.
// Snapshots write
// branches the same way (marshal.go), so a restored engine holds the
// nodes the live one held; no code in the package substitutes a state.
//
// The package is verified against the executable formal semantics
// (internal/semantics) by exhaustive bounded-language comparison and by
// randomized differential tests.
package state

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
)

// State is an operational state of some interaction (sub)expression. The
// nil State represents the invalid ("null") state.
type State interface {
	// Key returns the canonical rendering of the state: equal keys mean
	// semantically identical states, and equal shapes (sameState). It is
	// as long as the state's tree unfolding and rendered on each call,
	// for StateKey, snapshots and tests; the transition path renders keys
	// only where binding makes distinct states collide.
	Key() string
	// Final reports ϕ(s): whether the walkers may have reached the end of
	// the graph, i.e. the word consumed so far is a complete word.
	Final() bool
	// Size returns the number of elementary state nodes, the measure used
	// by the complexity experiments of Sec 6. A quantifier branch counts
	// its state over the body with the parameter free, so where binding
	// makes two nodes equal (or[-x($p),-x(v1)] under p := v1) it counts
	// one more node than the substituted state would, although the keys
	// agree. A branch restored from a pre-v4 snapshot holds that
	// substituted state, and counts the fewer nodes.
	Size() int
	// trans performs the optimized transition τ̂ for a concrete action
	// under strict matching, with the parameters the walk sh binds read
	// as their values (atoms containing unbound parameters match
	// nothing). It returns nil if the successor state is invalid. Child
	// states are transitioned through sh, so within one walk a shared
	// child is transitioned once per binding.
	trans(a expr.Action, sh sharing) State
	// render writes keyIn(s, env), the state's key under the binding
	// env, to w, which builds or hashes it: Key with every parameter env
	// binds replaced by its value, which is the Key of the substituted
	// state. With env nil it writes Key.
	render(w *sink, env *expr.Env)
	// inert reports that no transition can ever succeed from this state,
	// under any future parameter substitution. Used by ρ to drop
	// completed instances of parallel iterations. Must be conservative:
	// false is always safe.
	inert() bool
	// internParts returns an equal state (same id and shape) whose child
	// states have been replaced by their canonical representatives from
	// c; the hash-consing descent of Cache.Canon. Leaves return
	// themselves.
	internParts(c *Cache) State
	// sid returns the node's structural id (shape.go), which sealed sets
	// with setID.
	sid() uint64
	setID(id uint64)
}

// sigma caches σ(y) of an operand on the state node, built on first need
// and handed to successors, so a lineage of states builds it once.
type sigma struct {
	y    *expr.Expr
	init State
}

func (g *sigma) initial() State {
	if g.init == nil {
		g.init = Initial(g.y)
	}
	return g.init
}

// sharing is one τ̂ walk: the scratch table of the step plus the binding
// environment the walk is in. The environment binds the parameters of
// the quantifier branches the walk has entered, innermost first; it is
// empty (nil) at the top level. The table is keyed by (node,
// environment) identity — states are immutable, a walk applies one
// action, and equal environments are one object — so a sub-state
// reached along many paths is transitioned once per binding and every
// parent gets the same successor: the walk costs the state's DAG, not
// its tree unfolding. The zero walk shares nothing (Trans).
type sharing struct {
	tab *walkTable
	env *expr.Env
}

type walkTable struct {
	c    *Cache // interns every successor the walk derives
	next map[walkKey]State
	envs map[expr.Env]*expr.Env // interned frames: one per (parameter, value, outer frame); made on first bind
}

type walkKey struct {
	s   State
	env *expr.Env
}

func (t *walkTable) reset() {
	clear(t.next)
	clear(t.envs)
}

// trans is τ̂ of the child s within the walk. A cache's walk interns
// the successor, so the nodes a step builds have canonical children, and
// equal children are one object: comparing them is comparing pointers.
func (sh sharing) trans(s State, a expr.Action) State {
	if sh.tab == nil {
		return s.trans(a, sh)
	}
	k := walkKey{s, sh.env}
	next, ok := sh.tab.next[k]
	if !ok {
		next = sh.tab.c.Canon(s.trans(a, sh))
		sh.tab.next[k] = next
	}
	return next
}

// bind returns the walk inside a branch that binds p to v; v == ""
// leaves p unbound there, hiding an outer binding of p.
func (sh sharing) bind(p, v string) sharing {
	f := expr.Env{P: p, V: v, Up: sh.env}
	if sh.tab == nil {
		sh.env = &f
		return sh
	}
	env, ok := sh.tab.envs[f]
	if !ok {
		if sh.tab.envs == nil {
			sh.tab.envs = make(map[expr.Env]*expr.Env)
		}
		env = &f
		sh.tab.envs[f] = env
	}
	sh.env = env
	return sh
}

// free returns the walk inside a branch that leaves p unbound: a generic
// or anonymous branch, or a fresh one before it binds.
func (sh sharing) free(p string) sharing {
	if _, ok := sh.env.Lookup(p); !ok {
		return sh
	}
	return sh.bind(p, "")
}

// keyIn returns the key s has under env: its Key with every parameter
// env binds replaced by its value, which is the Key of the state the
// substitutions would build. It is rendered into one builder, and
// without building any state or expression. With env nil it is Key.
func keyIn(s State, env *expr.Env) string { return keyOf(func(w *sink) { s.render(w, env) }) }

// keyOf returns the key write writes.
func keyOf(write func(w *sink)) string {
	keysRendered.Add(1)
	var b strings.Builder
	withSink(&b, write)
	return b.String()
}

// keysRendered counts the keys rendered, for tests: τ̂ renders none
// unless binding makes two distinct states collide.
var keysRendered atomic.Int64

func hashIn(s State, env *expr.Env) uint64 { return hashBound(s, "", "", env) }

// hashBound returns H, the binding-aware hash of s's key under env with p
// bound to v (if p is not ""): render hashing what it writes, with
// expressions and atoms hashed as the bytes WriteIn writes and a set as
// its elements' hashes in sorted order, deduplicated where its key
// deduplicates keys. So equal keys give equal hashes, and no string is
// built or anything allocated. A hash is never identity: a match is
// confirmed by sameState or by keys.
func hashBound(s State, p, v string, env *expr.Env) uint64 {
	if sameIDs {
		return 1
	}
	return withSink(nil, func(w *sink) { w.bound(s, p, v, env) })
}

// mentions reports that s's key names the parameter p free, so that
// binding p changes it: s is scanned with p bound to a value no key holds.
func mentions(s State, p string) (found bool) {
	withSink(nil, func(w *sink) {
		w.scan = p
		w.bound(s, p, scanned, nil)
		found = w.found
	})
	return found
}

// scanned is the value mentions binds the scanned parameter to, which no
// key holds.
const scanned = "\x00"

// sink receives what render writes. It builds a key in b, or with b nil
// folds it into the hash h, and with scan set also looks for the free
// occurrences of the parameter scan (mentions). Its frames hold the
// bindings of the quantifier branches being written, innermost last, so
// that hashing and scanning allocate nothing; sinks are pooled.
type sink struct {
	b      *strings.Builder
	h      uint64
	scan   string
	found  bool
	frames [16]expr.Env
	n      int
}

var sinks = sync.Pool{New: func() any { return new(sink) }}

// withSink runs write with a sink that builds in b, or hashes if b is
// nil, and returns the hash.
func withSink(b *strings.Builder, write func(w *sink)) uint64 {
	w := sinks.Get().(*sink)
	w.b, w.h = b, fnvOffset
	write(w)
	h := w.h
	w.b, w.scan, w.found = nil, "", false
	sinks.Put(w)
	return h
}

func (w *sink) put(s string) {
	if w.b != nil {
		w.b.WriteString(s)
	} else {
		w.h = mix(w.h, expr.HashKey(s))
	}
}

func (w *sink) putc(c byte) {
	if w.b != nil {
		w.b.WriteByte(c)
	} else {
		w.h = mix(w.h, uint64(c))
	}
}

// expr writes e under env.
func (w *sink) expr(e *expr.Expr, env *expr.Env) {
	if w.b != nil {
		e.WriteIn(w.b, env)
		return
	}
	w.h = mix(w.h, e.HashIn(env))
	w.found = w.found || w.scanning(env) && e.HasFreeParam(w.scan)
}

// act writes the action a under env.
func (w *sink) act(a expr.Action, env *expr.Env) {
	if w.b != nil {
		a.WriteIn(w.b, env)
		return
	}
	w.h = mix(w.h, a.HashIn(env))
	w.found = w.found || w.scanning(env) &&
		slices.ContainsFunc(a.Args, func(arg expr.Arg) bool { return arg.Param && arg.Name == w.scan })
}

// scanning reports that the scanned parameter is free where env binds.
func (w *sink) scanning(env *expr.Env) bool {
	v, _ := env.Lookup(w.scan)
	return w.scan != "" && v == scanned
}

// bound writes the key of s under env with p bound to v, or unbound if v
// is "", in a frame it pops after.
func (w *sink) bound(s State, p, v string, env *expr.Env) {
	n := w.n
	if _, ok := env.Lookup(p); ok || v != "" {
		if n == len(w.frames) {
			env = &expr.Env{P: p, V: v, Up: env}
		} else {
			w.frames[n], w.n = expr.Env{P: p, V: v, Up: env}, n+1
			env = &w.frames[n]
		}
	}
	s.render(w, env)
	w.n = n
}

// excl writes '!' and the excluded values, if there are any.
func (w *sink) excl(vals []string) {
	if len(vals) > 0 {
		w.putc('!')
		w.put(strings.Join(vals, ","))
	}
}

// list writes the keys of states under env, comma-separated in order.
func (w *sink) list(ss []State, env *expr.Env) {
	for i, s := range ss {
		if i > 0 {
			w.putc(',')
		}
		s.render(w, env)
	}
}

// set writes n elements, elem(i) writing the i-th, as a set (dedup) or a
// multiset: separated by sep in key order, since elements are stored in
// id order, and with repeats dropped, since binding can make distinct
// elements equal. Hashing, their hashes fold in sorted order instead.
func (w *sink) set(n int, sep byte, dedup bool, elem func(i int)) {
	if w.b == nil {
		var buf [16]uint64
		hs, h := buf[:0], w.h
		for i := range n {
			w.h = fnvOffset
			elem(i)
			hs = append(hs, w.h)
		}
		if slices.Sort(hs); dedup {
			hs = slices.Compact(hs)
		}
		for w.h = h; len(hs) > 0; hs = hs[1:] {
			w.h = mix(w.h, hs[0])
		}
		return
	}
	if n < 2 {
		for i := range n {
			elem(i)
		}
		return
	}
	b, keys := w.b, make([]string, n)
	for i := range keys {
		var kb strings.Builder
		w.b = &kb
		elem(i)
		keys[i] = kb.String()
	}
	w.b = b
	if slices.Sort(keys); dedup {
		keys = slices.Compact(keys)
	}
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(sep)
		}
		b.WriteString(k)
	}
}

// states writes a state set (dedup) or multiset under env.
func (w *sink) states(ss []State, env *expr.Env, dedup bool) {
	w.set(len(ss), ',', dedup, func(i int) { ss[i].render(w, env) })
}

// Initial computes σ(e), the initial state of a (not necessarily closed)
// expression. Initial states are always valid because the empty word is a
// partial word of every expression.
func Initial(e *expr.Expr) State {
	switch e.Op {
	case expr.OpAtom:
		return newAtomState(e.Atom, false)
	case expr.OpEmpty:
		return theEmptyState
	case expr.OpOption:
		// y? behaves like ε | y.
		return newOrState([]State{theEmptyState, Initial(e.Kids[0])})
	case expr.OpSeq:
		return newSeqState(e)
	case expr.OpSeqIter:
		return newSeqIterState(e.Kids[0])
	case expr.OpPar:
		return newParState(e)
	case expr.OpParIter:
		return newParIterState(e.Kids[0])
	case expr.OpMult:
		return newMultState(e)
	case expr.OpOr:
		kids := make([]State, len(e.Kids))
		for i, k := range e.Kids {
			kids[i] = Initial(k)
		}
		return newOrState(kids)
	case expr.OpAnd:
		kids := make([]State, len(e.Kids))
		for i, k := range e.Kids {
			kids[i] = Initial(k)
		}
		return newAndState(kids)
	case expr.OpSync:
		return newSyncState(e)
	case expr.OpAnyQ:
		return newAnyQState(e)
	case expr.OpConQ:
		return newConQState(e)
	case expr.OpSyncQ:
		return newSyncQState(e)
	case expr.OpAllQ:
		return newAllQState(e)
	}
	panic(fmt.Sprintf("state: unknown op %v", e.Op))
}

// Trans exposes τ̂ for a possibly-nil state: the null state has no
// successors.
func Trans(s State, a expr.Action) State {
	if s == nil {
		return nil
	}
	return s.trans(a, sharing{})
}

// Final exposes ϕ for a possibly-nil state.
func Final(s State) bool { return s != nil && s.Final() }

// Size exposes the instrumentation size for a possibly-nil state.
func Size(s State) int {
	if s == nil {
		return 0
	}
	return s.Size()
}

// --- shared helpers -------------------------------------------------

// compress is the state-simplification half of ρ: a state that is final
// and inert — the walker finished this subgraph and can never move in it
// again, under any substitution — behaves exactly like the ε state, so
// it is replaced by it. This canonicalization lets alternatives that
// differ only in *how* a subgraph was completed collapse into one,
// which is what keeps states of practical expressions "nearly constant"
// (Sec 6): without it, e.g. the Fig 6 multiplier would remember which
// station served which patient forever.
func compress(s State) State {
	if s == nil {
		return nil
	}
	if _, isEps := s.(emptyState); isEps {
		return s
	}
	if s.Final() && s.inert() {
		return theEmptyState
	}
	return s
}

func allFinal(ss []State) bool {
	for _, s := range ss {
		if !s.Final() {
			return false
		}
	}
	return true
}

func allInert(ss []State) bool {
	for _, s := range ss {
		if !s.inert() {
			return false
		}
	}
	return true
}

func sumSizes(ss []State) int {
	n := 0
	for _, s := range ss {
		n += s.Size()
	}
	return n
}
