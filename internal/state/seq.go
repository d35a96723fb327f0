package state

import (
	"cmp"
	"slices"
	"strconv"

	"repro/internal/expr"
)

// seqState is the state of an n-ary sequential composition y1 - ... - yn.
// A walker is inside exactly one operand, but because an operand may be
// finished at several points (e.g. a* followed by b), the state keeps a
// set of (operand index, operand state) alternatives. The closure
// invariant holds at all times: whenever an alternative's state is final
// and a next operand exists, an alternative starting that next operand is
// present too.
type seqState struct {
	e     *expr.Expr // the OpSeq node, for lazily starting later operands
	alts  []seqAlt   // sorted by id, deduplicated
	inits []State    // σ of each operand, built on first need; successors share it
	node
}

type seqAlt struct {
	idx int
	st  State
}

func newSeqState(e *expr.Expr) State {
	s := &seqState{e: e}
	s.alts = s.close([]seqAlt{{0, Initial(e.Kids[0])}})
	return sealed(s)
}

// initial returns σ of operand i.
func (s *seqState) initial(i int) State {
	if s.inits == nil {
		s.inits = make([]State, len(s.e.Kids))
	}
	if s.inits[i] == nil {
		s.inits[i] = Initial(s.e.Kids[i])
	}
	return s.inits[i]
}

// close applies the closure invariant to alternatives of s's expression,
// then orders and deduplicates them.
func (s *seqState) close(alts []seqAlt) []seqAlt {
	// Closure: a final operand state lets the walker enter the next
	// operand without consuming an action.
	for i := 0; i < len(alts); i++ {
		if a := alts[i]; a.st.Final() && a.idx+1 < len(s.e.Kids) {
			alts = append(alts, seqAlt{a.idx + 1, s.initial(a.idx + 1)})
		}
	}
	return sortSeqAlts(alts)
}

// sortSeqAlts orders alternatives by id and removes duplicates.
func sortSeqAlts(alts []seqAlt) []seqAlt {
	id := func(a seqAlt) uint64 { return (a.st.sid() ^ uint64(a.idx)) * fnvPrime }
	key := func(a seqAlt) string { return strconv.Itoa(a.idx) + ":" + a.st.Key() }
	same := func(x, y seqAlt) bool { return x.idx == y.idx && sameState(x.st, y.st) }
	return sortByID(alts, id, key, same, true)
}

func (s *seqState) Key() string { return keyIn(s, nil) }

func (s *seqState) Final() bool {
	last := len(s.e.Kids) - 1
	for _, a := range s.alts {
		if a.idx == last && a.st.Final() {
			return true
		}
	}
	return false
}

func (s *seqState) Size() int {
	n := 1
	for _, a := range s.alts {
		n += a.st.Size()
	}
	return n
}

func (s *seqState) trans(act expr.Action, sh sharing) State {
	var next []seqAlt
	for _, a := range s.alts {
		if nst := sh.trans(a.st, act); nst != nil {
			next = append(next, seqAlt{a.idx, compress(nst)})
		}
	}
	if len(next) == 0 {
		return nil
	}
	next = s.close(next) // before s.inits is handed on: close may build it
	return sealed(&seqState{e: s.e, alts: next, inits: s.inits})
}

func (s *seqState) render(w *sink, env *expr.Env) {
	w.put("seq<")
	w.expr(s.e, env)
	w.put(">[")
	// The alternatives are stored in id order and written in (index, key)
	// order, as a set per index: binding can make two equal. Hashing, they
	// are one set of (index, state) pairs.
	alts := s.alts
	if w.b != nil {
		alts = slices.Clone(alts)
		slices.SortStableFunc(alts, func(x, y seqAlt) int { return cmp.Compare(x.idx, y.idx) })
	}
	for i := 0; i < len(alts); {
		j := i + 1
		for j < len(alts) && (w.b == nil || alts[j].idx == alts[i].idx) {
			j++
		}
		if i > 0 {
			w.putc(',')
		}
		run := alts[i:j]
		w.set(len(run), ',', true, func(k int) {
			w.put(strconv.Itoa(run[k].idx))
			w.putc(':')
			run[k].st.render(w, env)
		})
		i = j
	}
	w.putc(']')
}

func (s *seqState) inert() bool {
	for _, a := range s.alts {
		if !a.st.inert() {
			return false
		}
	}
	return true
}

func (s *seqState) internParts(c *Cache) State {
	alts, changed := canonEach(s.alts, func(a seqAlt) (seqAlt, bool) {
		st, changed := c.canonOf(a.st)
		return seqAlt{a.idx, st}, changed
	})
	return reuse(s, changed, func(n *seqState) { n.alts = alts })
}

// seqIterState is the state of a sequential iteration y*. It tracks the
// states of iterations the walker may currently be inside, plus a
// boundary flag recording that the word consumed so far is a complete
// sequence of iterations (which makes the whole state final and lets the
// next action start a fresh iteration — represented by keeping σ(y)
// among the instances whenever the flag is set).
type seqIterState struct {
	sigma            // the body y and σ(y)
	insts    []State // sorted by id, deduplicated
	boundary bool
	node
}

func newSeqIterState(y *expr.Expr) State {
	s := &seqIterState{sigma: sigma{y: y}, boundary: true}
	s.insts = []State{s.initial()}
	return sealed(s)
}

func (s *seqIterState) Key() string { return keyIn(s, nil) }

func (s *seqIterState) Final() bool { return s.boundary }
func (s *seqIterState) Size() int   { return 1 + sumSizes(s.insts) }

func (s *seqIterState) trans(a expr.Action, sh sharing) State {
	var next []State
	for _, in := range s.insts {
		if ni := sh.trans(in, a); ni != nil {
			next = append(next, ni)
		}
	}
	boundary := false
	for _, ni := range next {
		if ni.Final() {
			boundary = true
			break
		}
	}
	// ρ: an instance that is final and inert has completed this round and
	// can never move again; its contribution (the boundary) is recorded,
	// so the instance itself is dropped. This is what lets an iteration
	// state return to σ(y*) after each completed round.
	live := next[:0]
	for _, ni := range next {
		if ni.Final() && ni.inert() {
			continue
		}
		live = append(live, ni)
	}
	next = live
	if boundary {
		next = append(next, s.initial())
	}
	if len(next) == 0 {
		return nil
	}
	return sealed(&seqIterState{sigma: s.sigma, insts: sortDedupStates(next), boundary: boundary})
}

func (s *seqIterState) render(w *sink, env *expr.Env) {
	w.put("iter<")
	w.expr(s.y, env)
	w.putc('>')
	if s.boundary {
		w.putc('+')
	} else {
		w.putc('-')
	}
	w.putc('[')
	w.states(s.insts, env, true)
	w.putc(']')
}

func (s *seqIterState) inert() bool {
	// A fresh iteration can always be started while the boundary flag is
	// set, so the state is only inert if every instance is and no fresh
	// start could move (conservatively: never, unless σ(y) is among the
	// instances and inert itself, which allInert then covers).
	return allInert(s.insts)
}

func (s *seqIterState) internParts(c *Cache) State {
	insts, changed := canonAll(c, s.insts)
	return reuse(s, changed, func(n *seqIterState) { n.insts = insts })
}
