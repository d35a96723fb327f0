package state

import (
	"strconv"

	"repro/internal/expr"
)

// syncState is the state of a synchronization (coupling) y1 @ ... @ yn.
// Per the Table 8 semantics Φ(y)⊗κx(y)* ∩ Φ(z)⊗κx(z)*, each operand only
// observes the actions of its own alphabet: an action inside α(yi) must
// be accepted by operand i, an action outside passes operand i by. An
// action belonging to no operand's alphabet is not in α(x) at all and
// invalidates the state.
//
// This is the open-world conjunction that makes modular combination of
// independently developed interaction graphs work (Fig 7): a subgraph
// never prohibits activities it does not mention.
type syncState struct {
	kidExprs []*expr.Expr
	kids     []State
	alphas   []*expr.Alphabet
	node
}

func newSyncState(e *expr.Expr) State {
	n := len(e.Kids)
	s := &syncState{
		kidExprs: e.Kids,
		kids:     make([]State, n),
		alphas:   make([]*expr.Alphabet, n),
	}
	for i, k := range e.Kids {
		s.kids[i] = Initial(k)
		s.alphas[i] = expr.AlphabetOf(k)
	}
	return sealed(s)
}

func (s *syncState) Key() string { return keyIn(s, nil) }

func (s *syncState) render(w *sink, env *expr.Env) {
	w.put("sync")
	s.writeTag(w, env)
	w.putc('[')
	w.list(s.kids, env)
	w.putc(']')
}

// writeTag writes the operand tag under env. The tag names the
// operands' expressions, and with them the alphabets that decide which
// operands must take an action. Operand states with equal keys do not
// make two couplings equal when an operand's alphabet differs (every
// finished operand is ε), and equal keys would let ρ and the intern
// table merge them. A quantifier operand needs no entry, because its
// state key already starts with its expression, so a coupling of
// quantifiers alone (Fig 7) has no tag.
func (s *syncState) writeTag(w *sink, env *expr.Env) {
	open := false
	for i, k := range s.kids {
		if namesOwnExpr(k) {
			continue
		}
		if !open {
			w.putc('<')
			open = true
		}
		w.put(strconv.Itoa(i))
		w.putc('=')
		w.expr(s.kidExprs[i], env)
		w.putc(';')
	}
	if open {
		w.putc('>')
	}
}

// namesOwnExpr reports that a coupling operand's state key names the
// operand's expression: quantifier states start their keys with it, and
// a quantifier operand stays a state of its own expression until ρ
// makes it ε.
func namesOwnExpr(k State) bool {
	switch k.(type) {
	case *allQState, *anyQState, *conQState, *syncQState:
		return true
	}
	return false
}

func (s *syncState) Final() bool { return allFinal(s.kids) }
func (s *syncState) Size() int   { return 1 + sumSizes(s.kids) }

func (s *syncState) trans(a expr.Action, sh sharing) State {
	next := make([]State, len(s.kids))
	involved := false
	for i, kid := range s.kids {
		if !s.alphas[i].ContainsIn(a, sh.env) {
			next[i] = kid // the action passes this operand by
			continue
		}
		involved = true
		nk := sh.trans(kid, a)
		if nk == nil {
			return nil
		}
		next[i] = compress(nk)
	}
	if !involved {
		return nil // a ∉ α(x)
	}
	return sealed(&syncState{kidExprs: s.kidExprs, kids: next, alphas: s.alphas})
}

func (s *syncState) inert() bool { return allInert(s.kids) }

func (s *syncState) internParts(c *Cache) State {
	kids, changed := canonAll(c, s.kids)
	return reuse(s, changed, func(n *syncState) { n.kids = kids })
}
