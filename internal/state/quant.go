package state

import (
	"slices"
	"strings"

	"repro/internal/expr"
)

// branch is one value-instantiated branch of a quantifier state.
type branch struct {
	val string
	st  State
	// fresh is σ(y_val).Key(), the state that releases an allQ branch.
	// allQ fills it the first time the branch passes through its ρ and
	// successors carry it; "" means not computed yet (a new branch, a
	// substituted template, a restored checkpoint). Other quantifiers
	// release against their generic branch and leave it empty.
	fresh string
}

// branchCanAct reports whether the branch for value v can possibly
// consume the action: its atoms are the body's atoms with p := v, so a
// match requires either v among the action's values (a p-atom) or a
// parameter-free atom of the body (strictAlpha). Used to skip the
// overwhelming majority of branch transition attempts in uniformly
// quantified expressions.
func branchCanAct(v string, a expr.Action, strictAlpha *expr.Alphabet) bool {
	for _, arg := range a.Args {
		if !arg.Param && arg.Name == v {
			return true
		}
	}
	return strictAlpha.Contains(a)
}

type branchSet []branch

func (bs branchSet) find(v string) (State, bool) {
	for _, b := range bs {
		if b.val == v {
			return b.st, true
		}
	}
	return nil, false
}

func byVal(x, y branch) int { return strings.Compare(x.val, y.val) }

func (bs branchSet) canonical() branchSet {
	slices.SortFunc(bs, byVal)
	return bs
}

func (bs branchSet) key() string {
	var b strings.Builder
	for i, br := range bs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(br.val)
		b.WriteByte('=')
		b.WriteString(br.st.Key())
	}
	return b.String()
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

func (bs branchSet) subst(p, v string) branchSet {
	out := make(branchSet, len(bs))
	for i, b := range bs {
		out[i] = branch{val: b.val, st: b.st.subst(p, v)} // the template changed: drop fresh
	}
	return out
}

// internParts canonicalizes every branch state, preserving order.
func (bs branchSet) internParts(c *Cache) branchSet {
	out := make(branchSet, len(bs))
	for i, b := range bs {
		out[i] = branch{val: b.val, st: c.Canon(b.st), fresh: b.fresh}
	}
	return out
}

// newValues returns the concrete values of a that have no branch yet.
func newValues(a expr.Action, touched branchSet) []string {
	var out []string
	for _, v := range a.Values() {
		if _, ok := touched.find(v); ok {
			continue
		}
		if !containsStr(out, v) {
			out = append(out, v)
		}
	}
	return out
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
// An action mentioning a fresh value v forks a new branch from the
// current generic state with p bound to v.
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
	keyed
}

func newAnyQState(e *expr.Expr) State {
	return &anyQState{e: e, strictA: expr.AlphabetOf(e.Kids[0]), generic: Initial(e.Kids[0])}
}

func (s *anyQState) Key() string {
	if s.key == "" {
		gk := "!"
		if s.generic != nil {
			gk = s.generic.Key()
			if len(s.excluded) > 0 {
				gk += "!" + strings.Join(s.excluded, ",")
			}
		}
		s.key = "any<" + s.e.Key() + ">{" + s.touched.key() + "|" + gk + "}"
	}
	return s.key
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
	var generic State
	var taint []string
	excluded := s.excluded
	if s.generic != nil {
		taint = s.strictA.BindingMatches(p, a)
		generic = compress(sh.trans(s.generic, a))
		if generic != nil {
			// The generic branch consumed a with p free; it can no longer
			// stand for values under which a $p atom would have matched a
			// (those bound variants fork below, or are already touched).
			excluded = mergeExcl(excluded, taint)
		}
	}
	var touched branchSet
	for _, b := range s.touched {
		if !branchCanAct(b.val, a, s.strictA) {
			continue // the action cannot belong to this branch's word
		}
		nst := sh.trans(b.st, a)
		if nst == nil {
			continue
		}
		nst = compress(nst)
		// ρ: a branch whose state caught up with the generic branch again
		// is indistinguishable from an untouched one and is released —
		// unless its value is excluded from the generic branch, in which
		// case the generic cannot stand in for it later.
		if generic != nil && nst.Key() == generic.Key() && !containsStr(excluded, b.val) {
			continue
		}
		touched = append(touched, branch{val: b.val, st: nst})
	}
	if s.generic != nil {
		for _, v := range newValues(a, s.touched) {
			// An excluded value cannot fork from the generic branch: the
			// generic's history was consumed under "p ≠ v".
			if containsStr(s.excluded, v) {
				continue
			}
			// The fork rule (see allQState.trans): unless a $p atom
			// matches a under p := v, the bound branch fails where the
			// generic one did.
			if generic == nil && !containsStr(taint, v) {
				continue
			}
			nst := s.generic.subst(p, v).trans(a, sh)
			if nst == nil {
				continue
			}
			nst = compress(nst)
			// If binding v made no observable difference the branch keeps
			// riding with the generic one (they evolve in lockstep until
			// an action actually mentions v in a parameter position).
			if generic != nil && nst.Key() == generic.Key() && !containsStr(excluded, v) {
				continue
			}
			touched = append(touched, branch{val: v, st: nst})
		}
	}
	if len(touched) == 0 && generic == nil {
		return nil
	}
	return &anyQState{e: s.e, strictA: s.strictA, touched: touched.canonical(), generic: generic, excluded: excluded}
}

func (s *anyQState) subst(p, v string) State {
	if !s.e.HasFreeParam(p) {
		return s
	}
	var generic State
	if s.generic != nil {
		generic = s.generic.subst(p, v)
	}
	ne := s.e.Subst(p, v)
	return &anyQState{e: ne, strictA: expr.AlphabetOf(ne.Kids[0]), touched: s.touched.subst(p, v), generic: generic, excluded: s.excluded}
}

func (s *anyQState) internParts(c *Cache) State {
	var generic State
	if s.generic != nil {
		generic = c.Canon(s.generic)
	}
	return &anyQState{e: s.e, strictA: s.strictA, touched: s.touched.internParts(c),
		generic: generic, excluded: s.excluded, keyed: s.keyed}
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
	keyed
}

func newConQState(e *expr.Expr) State {
	return &conQState{e: e, strictA: expr.AlphabetOf(e.Kids[0]), generic: Initial(e.Kids[0])}
}

func (s *conQState) Key() string {
	if s.key == "" {
		s.key = "conq<" + s.e.Key() + ">{" + s.touched.key() + "|" + s.generic.Key() + "}"
	}
	return s.key
}

func (s *conQState) Final() bool {
	return s.generic.Final() && s.touched.allFinal()
}

func (s *conQState) Size() int { return 1 + s.touched.size() + s.generic.Size() }

func (s *conQState) trans(a expr.Action, sh sharing) State {
	p := s.e.Param
	generic := sh.trans(s.generic, a)
	if generic == nil {
		return nil
	}
	generic = compress(generic)
	var touched branchSet
	for _, b := range s.touched {
		// Every branch must accept every action; a branch that cannot
		// possibly act kills the state without a deep descent.
		if !branchCanAct(b.val, a, s.strictA) {
			return nil
		}
		nst := sh.trans(b.st, a)
		if nst == nil {
			return nil
		}
		nst = compress(nst)
		// ρ: release branches indistinguishable from the generic one.
		if nst.Key() == generic.Key() {
			continue
		}
		touched = append(touched, branch{val: b.val, st: nst})
	}
	for _, v := range newValues(a, s.touched) {
		nst := s.generic.subst(p, v).trans(a, sh)
		if nst == nil {
			return nil
		}
		nst = compress(nst)
		// If binding v made no observable difference, the branch can keep
		// riding with the generic one.
		if nst.Key() == generic.Key() {
			continue
		}
		touched = append(touched, branch{val: v, st: nst})
	}
	return &conQState{e: s.e, strictA: s.strictA, touched: touched.canonical(), generic: generic}
}

func (s *conQState) subst(p, v string) State {
	if !s.e.HasFreeParam(p) {
		return s
	}
	ne := s.e.Subst(p, v)
	return &conQState{e: ne, strictA: expr.AlphabetOf(ne.Kids[0]), touched: s.touched.subst(p, v), generic: s.generic.subst(p, v)}
}

func (s *conQState) inert() bool {
	// Any action must be accepted by all branches including generic; if
	// the generic branch is inert every action kills the state.
	return s.generic.inert()
}

func (s *conQState) internParts(c *Cache) State {
	return &conQState{e: s.e, strictA: s.strictA, touched: s.touched.internParts(c),
		generic: c.Canon(s.generic), keyed: s.keyed}
}

// --- synchronization quantifier ("syncq p: y") ------------------------
//
// For every value ω, the projection of the word onto α(y_ω) must be
// acceptable to that branch. Untouched branches only ever see actions
// matching parameter-free atoms, and all see the same ones, so a single
// generic branch represents them in lockstep.
type syncQState struct {
	e       *expr.Expr
	whole   *expr.Alphabet // α of the quantifier (p ranges as wildcard)
	touched branchSet
	alphas  []*expr.Alphabet // per touched branch, aligned with touched
	generic State
	genA    *expr.Alphabet // strict alphabet of the generic branch
	keyed
}

func newSyncQState(e *expr.Expr) State {
	return &syncQState{
		e:       e,
		whole:   expr.AlphabetOf(e),
		generic: Initial(e.Kids[0]),
		genA:    expr.AlphabetOf(e.Kids[0]),
	}
}

func (s *syncQState) Key() string {
	if s.key == "" {
		s.key = "syncq<" + s.e.Key() + ">{" + s.touched.key() + "|" + s.generic.Key() + "}"
	}
	return s.key
}

func (s *syncQState) Final() bool {
	return s.generic.Final() && s.touched.allFinal()
}

func (s *syncQState) Size() int { return 1 + s.touched.size() + s.generic.Size() }

func (s *syncQState) trans(a expr.Action, sh sharing) State {
	if !s.whole.Contains(a) {
		return nil // a ∉ α(x)
	}
	p := s.e.Param
	var touched branchSet
	var alphas []*expr.Alphabet
	for i, b := range s.touched {
		al := s.alphas[i]
		if !al.Contains(a) {
			touched = append(touched, b)
			alphas = append(alphas, al)
			continue
		}
		nst := sh.trans(b.st, a)
		if nst == nil {
			return nil
		}
		touched = append(touched, branch{val: b.val, st: nst})
		alphas = append(alphas, al)
	}
	generic := s.generic
	if s.genA.Contains(a) {
		generic = sh.trans(s.generic, a)
		if generic == nil {
			return nil
		}
		generic = compress(generic)
	}
	// ρ: release touched branches that caught up with the generic one;
	// they are indistinguishable from untouched branches again.
	kept := touched[:0]
	keptAl := alphas[:0]
	for i := range touched {
		nst := compress(touched[i].st)
		if nst.Key() == generic.Key() {
			continue
		}
		kept = append(kept, branch{val: touched[i].val, st: nst})
		keptAl = append(keptAl, alphas[i])
	}
	touched, alphas = kept, keptAl
	for _, v := range newValues(a, s.touched) {
		if !s.involved(a, v) {
			continue // branch v is not involved and stays generic
		}
		nst := s.generic.subst(p, v).trans(a, sh)
		if nst == nil {
			return nil
		}
		nst = compress(nst)
		// Binding made no difference: branch v keeps riding with the
		// generic branch (its alphabet then equals the strict one too).
		if nst.Key() == generic.Key() {
			continue
		}
		touched = append(touched, branch{val: v, st: nst})
		alphas = append(alphas, expr.AlphabetOf(s.e.Kids[0].Subst(p, v)))
	}
	ns := &syncQState{e: s.e, whole: s.whole, touched: touched, alphas: alphas, generic: generic, genA: s.genA}
	ns.sortBranches()
	return ns
}

// involved reports a ∈ α(y_v), whether branch v takes part in a, without
// building y_v: free parameters never match, so binding p := v adds to
// α(y) exactly the matches BindingMatches reports for v.
func (s *syncQState) involved(a expr.Action, v string) bool {
	return s.genA.Contains(a) || containsStr(s.genA.BindingMatches(s.e.Param, a), v)
}

// sortBranches canonicalizes touched order while keeping alphas aligned.
func (s *syncQState) sortBranches() {
	idx := make([]int, len(s.touched))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int { return byVal(s.touched[i], s.touched[j]) })
	nt := make(branchSet, len(idx))
	na := make([]*expr.Alphabet, len(idx))
	for i, j := range idx {
		nt[i] = s.touched[j]
		na[i] = s.alphas[j]
	}
	s.touched = nt
	s.alphas = na
}

func (s *syncQState) subst(p, v string) State {
	if !s.e.HasFreeParam(p) {
		return s
	}
	ne := s.e.Subst(p, v)
	ns := &syncQState{
		e:       ne,
		whole:   expr.AlphabetOf(ne),
		touched: s.touched.subst(p, v),
		generic: s.generic.subst(p, v),
		genA:    expr.AlphabetOf(ne.Kids[0]),
	}
	ns.alphas = make([]*expr.Alphabet, len(ns.touched))
	for i, b := range ns.touched {
		ns.alphas[i] = expr.AlphabetOf(ne.Kids[0].Subst(ne.Param, b.val))
	}
	ns.sortBranches()
	return ns
}

func (s *syncQState) inert() bool { return false }

func (s *syncQState) internParts(c *Cache) State {
	return &syncQState{e: s.e, whole: s.whole, touched: s.touched.internParts(c),
		alphas: s.alphas, generic: c.Canon(s.generic), genA: s.genA, keyed: s.keyed}
}
