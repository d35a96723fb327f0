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
// represented as alternative sets, deduplicated by canonical keys; this
// is the generalization of the paper's parallel-composition example
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
// The package is verified against the executable formal semantics
// (internal/semantics) by exhaustive bounded-language comparison and by
// randomized differential tests.
package state

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
)

// State is an operational state of some interaction (sub)expression. The
// nil State represents the invalid ("null") state.
type State interface {
	// Key returns the canonical identity of the state; equal keys mean
	// semantically identical states (used for deduplication).
	Key() string
	// Final reports ϕ(s): whether the walkers may have reached the end of
	// the graph, i.e. the word consumed so far is a complete word.
	Final() bool
	// Size returns the number of elementary state nodes, the measure used
	// by the complexity experiments of Sec 6.
	Size() int
	// trans performs the optimized transition τ̂ for a concrete action
	// under strict matching (atoms containing unbound parameters match
	// nothing). It returns nil if the successor state is invalid. Child
	// states are transitioned through sh, so within one walk a shared
	// child is transitioned once.
	trans(a expr.Action, sh sharing) State
	// subst replaces the free parameter p with value v throughout the
	// state (used by quantifier states to bind their parameter lazily).
	subst(p, v string) State
	// inert reports that no transition can ever succeed from this state,
	// under any future parameter substitution. Used by ρ to drop
	// completed instances of parallel iterations. Must be conservative:
	// false is always safe.
	inert() bool
	// internParts returns an equal state (same Key) whose child states
	// have been replaced by their canonical representatives from c; the
	// hash-consing descent of Cache.Canon. Leaves return themselves.
	internParts(c *Cache) State
	// keys returns the node's key cache; nil for leaves (short keys).
	keys() *keyed
}

// keyed caches a composite state's key and the key's hash, each built on
// first use; Cache.Canon builds both before a node is shared.
type keyed struct {
	key  string
	hash uint64
}

func (k *keyed) keys() *keyed { return k }

// keyHash is expr.HashKey(s.Key()), cached on composite nodes.
func keyHash(s State) uint64 {
	k := s.keys()
	if k == nil {
		return expr.HashKey(s.Key())
	}
	if k.hash == 0 {
		k.hash = expr.HashKey(s.Key())
	}
	return k.hash
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

// sharing is the scratch table of one τ̂ evaluation, keyed by node
// identity (states are immutable, and a walk applies one action): a
// sub-state reached along many paths is transitioned once and every
// parent gets the same successor, so the walk costs the state's DAG, not
// its tree unfolding. The nil table shares nothing (Trans).
type sharing map[State]State

// trans is τ̂ of the child s within the walk.
func (sh sharing) trans(s State, a expr.Action) State {
	next, ok := sh[s]
	if !ok {
		next = s.trans(a, sh)
		if sh != nil {
			sh[s] = next
		}
	}
	return next
}

// Initial computes σ(e), the initial state of a (not necessarily closed)
// expression. Initial states are always valid because the empty word is a
// partial word of every expression.
func Initial(e *expr.Expr) State {
	switch e.Op {
	case expr.OpAtom:
		return &atomState{atom: e.Atom}
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
	return s.trans(a, nil)
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

func byKey(x, y State) int { return strings.Compare(x.Key(), y.Key()) }

func sameState(x, y State) bool { return x == y || x.Key() == y.Key() }

// sortDedupStates orders states by key and removes duplicates, returning
// the canonical representation of a state multiset turned set.
func sortDedupStates(ss []State) []State {
	slices.SortFunc(ss, byKey)
	return slices.CompactFunc(ss, sameState)
}

// sortStatesKeepDup orders a state multiset by key, keeping duplicates
// (parallel iterations and multipliers track instance multiplicity).
func sortStatesKeepDup(ss []State) []State {
	slices.SortFunc(ss, byKey)
	return ss
}

// joinKeys concatenates state keys with a separator inside brackets.
func joinKeys(prefix string, ss []State) string {
	var b strings.Builder
	b.WriteString(prefix)
	b.WriteByte('[')
	for i, s := range ss {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s.Key())
	}
	b.WriteByte(']')
	return b.String()
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

func substAll(ss []State, p, v string) []State {
	out := make([]State, len(ss))
	for i, s := range ss {
		out[i] = s.subst(p, v)
	}
	return out
}
