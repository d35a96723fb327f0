package state

import (
	"repro/internal/expr"
)

// atomState is the state of an atomic expression a: either the action is
// still pending or it has been traversed.
type atomState struct {
	atom expr.Action
	done bool
	node
}

func newAtomState(a expr.Action, done bool) State { return sealed(&atomState{atom: a, done: done}) }

func (s *atomState) Key() string { return keyIn(s, nil) }

func (s *atomState) Final() bool { return s.done }
func (s *atomState) Size() int   { return 1 }

func (s *atomState) trans(a expr.Action, sh sharing) State {
	if s.done || !s.atom.MatchIn(a, sh.env) {
		return nil
	}
	return newAtomState(s.atom, true)
}

func (s *atomState) render(w *sink, env *expr.Env) {
	if s.done {
		w.putc('+')
	} else {
		w.putc('-')
	}
	w.act(s.atom, env)
}

// inert: once traversed, an atom can never move again, regardless of
// substitutions. A pending atom may still fire after substitution.
func (s *atomState) inert() bool { return s.done }

func (s *atomState) internParts(c *Cache) State { return s }

// emptyState is the (single) state of the neutral expression ε.
type emptyState struct{}

var theEmptyState State = emptyState{}

func (emptyState) Key() string                      { return "eps" }
func (emptyState) Final() bool                      { return true }
func (emptyState) Size() int                        { return 1 }
func (emptyState) trans(expr.Action, sharing) State { return nil }
func (emptyState) render(w *sink, _ *expr.Env)      { w.put("eps") }
func (emptyState) inert() bool                      { return true }
func (emptyState) internParts(*Cache) State         { return theEmptyState }
func (emptyState) sid() uint64                      { return emptyID }
func (emptyState) setID(uint64)                     {}

// orState is the state of a disjunction: the walker is in exactly one
// branch, but which one is not yet determined, so all still-valid branch
// states are tracked. Branches whose state dies are removed by ρ; when
// none remains the whole state is invalid.
type orState struct {
	kids []State // sorted by id, deduplicated
	node
}

func newOrState(kids []State) State {
	live := kids[:0]
	for _, k := range kids {
		if k != nil {
			live = append(live, k)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return sealed(&orState{kids: sortDedupStates(live)})
}

func (s *orState) Key() string { return keyIn(s, nil) }

func (s *orState) Final() bool {
	for _, k := range s.kids {
		if k.Final() {
			return true
		}
	}
	return false
}

func (s *orState) Size() int { return 1 + sumSizes(s.kids) }

func (s *orState) trans(a expr.Action, sh sharing) State {
	next := make([]State, 0, len(s.kids))
	for _, k := range s.kids {
		if nk := sh.trans(k, a); nk != nil {
			next = append(next, compress(nk))
		}
	}
	return newOrState(next)
}

func (s *orState) render(w *sink, env *expr.Env) {
	w.put("or[")
	w.states(s.kids, env, true)
	w.putc(']')
}

func (s *orState) inert() bool { return allInert(s.kids) }

func (s *orState) internParts(c *Cache) State {
	kids, changed := canonAll(c, s.kids)
	return reuse(s, changed, func(n *orState) { n.kids = kids })
}

// andState is the state of a strict conjunction: every branch must accept
// every action; a single dying branch invalidates the whole state.
type andState struct {
	kids []State
	node
}

func newAndState(kids []State) State {
	for _, k := range kids {
		if k == nil {
			return nil
		}
	}
	return sealed(&andState{kids: kids})
}

func (s *andState) Key() string { return keyIn(s, nil) }

func (s *andState) Final() bool { return allFinal(s.kids) }
func (s *andState) Size() int   { return 1 + sumSizes(s.kids) }

func (s *andState) trans(a expr.Action, sh sharing) State {
	next := make([]State, len(s.kids))
	for i, k := range s.kids {
		nk := sh.trans(k, a)
		if nk == nil {
			return nil
		}
		next[i] = compress(nk)
	}
	return sealed(&andState{kids: next})
}

func (s *andState) render(w *sink, env *expr.Env) {
	w.put("and[")
	w.list(s.kids, env)
	w.putc(']')
}

// inert: if any branch can never move again, no action can ever be
// accepted by the conjunction.
func (s *andState) inert() bool {
	for _, k := range s.kids {
		if k.inert() {
			return true
		}
	}
	return false
}

func (s *andState) internParts(c *Cache) State {
	kids, changed := canonAll(c, s.kids)
	return reuse(s, changed, func(n *andState) { n.kids = kids })
}
