package state

import (
	"repro/internal/expr"
)

// parState is the state of an n-ary parallel composition y1 || ... || yn,
// the operator whose state the paper spells out in Sec 4: a set A of
// alternatives, each a tuple of operand states. A transition replaces
// each alternative with the variants in which exactly one operand
// consumed the action; ρ drops variants whose operand state died and
// deduplicates the rest.
type parState struct {
	alts [][]State // sorted by id, deduplicated
	node
}

func newParState(e *expr.Expr) State {
	kids := make([]State, len(e.Kids))
	for i, k := range e.Kids {
		kids[i] = Initial(k)
	}
	return sealed(&parState{alts: [][]State{kids}})
}

// writeAlts writes alternatives' keys under env as a set, separated by
// ';'.
func writeAlts(w *sink, alts [][]State, env *expr.Env, multiset bool) {
	w.set(len(alts), ';', true, func(i int) { writeAlt(w, alts[i], env, multiset) })
}

// altKey is an alternative's key.
func altKey(alt []State, multiset bool) string {
	return keyOf(func(w *sink) { writeAlt(w, alt, nil, multiset) })
}

// writeAlt writes one alternative's states under env: in slot order, or
// sorted again for a multiset.
func writeAlt(w *sink, alt []State, env *expr.Env, multiset bool) {
	if multiset {
		w.states(alt, env, false)
	} else {
		w.list(alt, env)
	}
}

func (s *parState) Key() string { return keyIn(s, nil) }

func (s *parState) Final() bool {
	for _, alt := range s.alts {
		if allFinal(alt) {
			return true
		}
	}
	return false
}

func (s *parState) Size() int {
	n := 1
	for _, alt := range s.alts {
		n += sumSizes(alt)
	}
	return n
}

func (s *parState) trans(a expr.Action, sh sharing) State {
	var next [][]State
	for _, alt := range s.alts {
		for i, kid := range alt {
			nk := sh.trans(kid, a)
			if nk == nil {
				continue
			}
			nalt := make([]State, len(alt))
			copy(nalt, alt)
			nalt[i] = compress(nk)
			next = append(next, nalt)
		}
	}
	if len(next) == 0 {
		return nil
	}
	return sealed(&parState{alts: sortDedupAlts(next, false)})
}

func (s *parState) render(w *sink, env *expr.Env) {
	w.put("par{")
	writeAlts(w, s.alts, env, false)
	w.putc('}')
}

func (s *parState) inert() bool {
	for _, alt := range s.alts {
		if !allInert(alt) {
			return false
		}
	}
	return true
}

func (s *parState) internParts(c *Cache) State {
	alts, changed := canonAlts(c, s.alts)
	return reuse(s, changed, func(n *parState) { n.alts = alts })
}

// multState is the state of a multiplier mult(n, y): exactly n
// indistinguishable concurrent instances of y. Alternatives hold the n
// instance states as a sorted multiset, which keeps the state-space
// explosion at "n multichoose k" instead of the 2^n a nested parallel
// composition of identical operands would produce — one of the practical
// optimizations ρ is responsible for in the paper.
type multState struct {
	alts [][]State // each sorted by id, length n; sorted by id, deduplicated
	node
}

func newMultState(e *expr.Expr) State {
	alt := make([]State, e.N)
	init := Initial(e.Kids[0])
	for i := range alt {
		alt[i] = init
	}
	return sealed(&multState{alts: [][]State{alt}})
}

func (s *multState) Key() string { return keyIn(s, nil) }

func (s *multState) Final() bool {
	for _, alt := range s.alts {
		if allFinal(alt) {
			return true
		}
	}
	return false
}

func (s *multState) Size() int {
	n := 1
	for _, alt := range s.alts {
		n += sumSizes(alt)
	}
	return n
}

func (s *multState) trans(a expr.Action, sh sharing) State {
	var next [][]State
	for _, alt := range s.alts {
		for i, inst := range alt {
			// Identical instances are interchangeable: transitioning the
			// first of a run of equal states covers them all.
			if i > 0 && sameState(alt[i], alt[i-1]) {
				continue
			}
			ni := sh.trans(inst, a)
			if ni == nil {
				continue
			}
			nalt := make([]State, len(alt))
			copy(nalt, alt)
			// ρ: finished instances become ε so alternatives that differ
			// only in which instance finished first collapse (the
			// multiplier must keep exactly N instances for finality, so
			// they are canonicalized rather than dropped).
			nalt[i] = compress(ni)
			next = append(next, sortStatesKeepDup(nalt))
		}
	}
	if len(next) == 0 {
		return nil
	}
	return sealed(&multState{alts: sortDedupAlts(next, true)})
}

func (s *multState) render(w *sink, env *expr.Env) {
	w.put("mult{")
	writeAlts(w, s.alts, env, true)
	w.putc('}')
}

func (s *multState) inert() bool {
	for _, alt := range s.alts {
		if !allInert(alt) {
			return false
		}
	}
	return true
}

func (s *multState) internParts(c *Cache) State {
	alts, changed := canonAlts(c, s.alts)
	return reuse(s, changed, func(n *multState) { n.alts = alts })
}

// parIterState is the state of a parallel iteration y#: an unbounded
// number of concurrent instances, created lazily when an action starts a
// new traversal of y. Instances that are final and inert are dropped by
// ρ — they can never move again and a final instance never blocks
// finality — which keeps states of benign expressions small.
type parIterState struct {
	sigma           // the body y and σ(y)
	alts  [][]State // multisets sorted by id (possibly empty); sorted by id, deduplicated
	node
}

func newParIterState(y *expr.Expr) State {
	return sealed(&parIterState{sigma: sigma{y: y}, alts: [][]State{nil}})
}

func (s *parIterState) Key() string { return keyIn(s, nil) }

func (s *parIterState) Final() bool {
	for _, alt := range s.alts {
		if allFinal(alt) {
			return true
		}
	}
	return false
}

func (s *parIterState) Size() int {
	n := 1
	for _, alt := range s.alts {
		n += sumSizes(alt)
	}
	return n
}

// compactInstances applies the ρ optimization: final inert instances are
// semantically finished and are removed from the multiset.
func compactInstances(alt []State) []State {
	out := alt[:0]
	for _, in := range alt {
		if in.Final() && in.inert() {
			continue
		}
		out = append(out, in)
	}
	return out
}

func (s *parIterState) trans(a expr.Action, sh sharing) State {
	var next [][]State
	for _, alt := range s.alts {
		// An existing instance consumes the action...
		for i, inst := range alt {
			if i > 0 && sameState(alt[i], alt[i-1]) {
				continue
			}
			ni := sh.trans(inst, a)
			if ni == nil {
				continue
			}
			nalt := make([]State, len(alt))
			copy(nalt, alt)
			nalt[i] = ni
			next = append(next, sortStatesKeepDup(compactInstances(nalt)))
		}
		// ... or a fresh instance starts with it.
		if ni := sh.trans(s.initial(), a); ni != nil {
			nalt := make([]State, len(alt), len(alt)+1)
			copy(nalt, alt)
			nalt = append(nalt, ni)
			next = append(next, sortStatesKeepDup(compactInstances(nalt)))
		}
	}
	if len(next) == 0 {
		return nil
	}
	return sealed(&parIterState{sigma: s.sigma, alts: sortDedupAlts(next, true)})
}

func (s *parIterState) render(w *sink, env *expr.Env) {
	w.put("piter<")
	w.expr(s.y, env)
	w.put(">{")
	writeAlts(w, s.alts, env, true)
	w.putc('}')
}

// inert: a fresh instance can always be started, so a parallel iteration
// is only inert if even a fresh σ(y) could never move — conservatively
// reported as false.
func (s *parIterState) inert() bool { return false }

func (s *parIterState) internParts(c *Cache) State {
	alts, changed := canonAlts(c, s.alts)
	return reuse(s, changed, func(n *parIterState) { n.alts = alts })
}
