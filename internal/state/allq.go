package state

import (
	"slices"

	"repro/internal/expr"
)

// allQState is the state of a parallel quantifier "all p: y": the word is
// a shuffle of words belonging to branches for pairwise distinct values
// of p (Table 8: the infinite shuffle over Ω, which collapses to a union
// of finite shuffles when — and only when — every concretion of y is
// nullable).
//
// A state is a set of alternatives. Each alternative records
//
//   - named branches: value → branch state, for branches whose value the
//     word has pinned down (an action mentioned the value in a parameter
//     position in a way that mattered);
//   - anonymous branches: branch states with p still unbound, for
//     branches that have consumed actions matching parameter-free atoms
//     only. Their value is some definite but not-yet-determined element
//     of Ω distinct from every named value and from the other anonymous
//     branches. An anonymous branch may later be *bound* to a value that
//     first appears in an action, which moves it into the named set —
//     one alternative per possible binding, because a different
//     anonymous branch (or a fresh one) could equally own that value.
//
// Binding soundness: consuming an action with p free can treat the
// action differently than a bound branch would — most visibly inside a
// coupling, where an action passes an operand by exactly when it is
// outside the operand's alphabet, and binding p to one of the action's
// values can move it inside. An anonymous branch that consumed such an
// action has therefore committed to "p is none of those values"; the
// branch records them as excluded and can never be bound to them (the
// bound-now variant of the same consumption is explored as its own
// alternative at that action). The differential fuzzer caught exactly
// this: a branch consumed x(v2) with x($p0) passed by, was later bound
// to v2, and the engine over-accepted.
//
// Untouched branches (all remaining values) contribute the empty word and
// need no representation beyond the nullability flag.
type allQState struct {
	e        *expr.Expr
	sigma                   // the body y (p free) and σ(y), the template of fresh branches
	strictA  *expr.Alphabet // α of the body with p free: parameter-free atoms
	nullable bool           // ϕ(σ(y)): whether every untouched branch may stay empty
	alts     []allQAlt      // sorted by id, deduplicated
	node
}

type allQAlt struct {
	named branchSet    // sorted by value
	anon  []anonBranch // sorted by id
}

// sortDedupQAlts orders alternatives by id and removes duplicates.
func sortDedupQAlts(alts []allQAlt, p string) []allQAlt {
	id := func(a allQAlt) uint64 { return hashOf(qAlt{a, p}) }
	key := func(a allQAlt) string { return a.key(p) }
	same := func(x, y allQAlt) bool { return sameShape(qAlt{x, p}, qAlt{y, p}) }
	return sortByID(alts, id, key, same, true)
}

// qAlt is an alternative with the parameter its named branches bind,
// which its shape names.
type qAlt struct {
	allQAlt
	p string
}

// anonBranch is one branch with p unbound, together with the values its
// consumption history has ruled out as bindings.
type anonBranch struct {
	st   State
	excl []string // sorted
}

func (ab anonBranch) key() string { return keyOf(func(w *sink) { ab.write(w, "", nil) }) }

// write writes the anonymous branch's key under env, with p unbound.
func (ab anonBranch) write(w *sink, p string, env *expr.Env) {
	w.bound(ab.st, p, "", env)
	w.excl(ab.excl)
}

// mergeExcl unions two exclusion sets into a new canonical (deduped,
// sorted) set; the inputs are not modified. Both quantifier states that
// track excluded bindings (allQ anonymous branches, anyQ's generic
// branch) build their sets through this one helper so their Key()s stay
// comparable.
func mergeExcl(excl, vals []string) []string {
	if len(vals) == 0 {
		return excl
	}
	out := append([]string(nil), excl...)
	for _, v := range vals {
		if !containsStr(out, v) {
			out = append(out, v)
		}
	}
	slices.Sort(out)
	return out
}

func sortAnon(abs []anonBranch) []anonBranch {
	return sortByID(abs, hashOf[anonBranch], anonBranch.key, sameShape[anonBranch], false)
}

func anonStates(abs []anonBranch) []State {
	out := make([]State, len(abs))
	for i, ab := range abs {
		out[i] = ab.st
	}
	return out
}

func (a allQAlt) key(p string) string { return keyOf(func(w *sink) { a.write(w, p, nil) }) }

// write writes the alternative's key under env: named branches bind p
// to their values, anonymous ones leave it unbound and are written in
// key order.
func (a allQAlt) write(w *sink, p string, env *expr.Env) {
	w.putc('{')
	a.named.write(w, p, env)
	w.putc('|')
	w.set(len(a.anon), ',', false, func(i int) { a.anon[i].write(w, p, env) })
	w.putc('}')
}

func newAllQState(e *expr.Expr) State {
	s := &allQState{e: e, sigma: sigma{y: e.Kids[0]}, strictA: expr.AlphabetOf(e.Kids[0]), alts: []allQAlt{{}}}
	s.nullable = s.initial().Final()
	return sealed(s)
}

func (s *allQState) Key() string { return keyIn(s, nil) }

func (s *allQState) render(w *sink, env *expr.Env) {
	w.put("all<")
	w.expr(s.e, env)
	w.put(">{")
	// ρ keeps alternatives distinct, but binding can make two equal.
	w.set(len(s.alts), ';', true, func(i int) { s.alts[i].write(w, s.e.Param, env) })
	w.putc('}')
}

// Final: some alternative must have every branch final, and the
// (infinitely many) untouched branches must be allowed to contribute the
// empty word, which per Table 8 requires 〈〉 ∈ Φ(y_ω) for all ω.
func (s *allQState) Final() bool {
	if !s.nullable {
		return false
	}
	for _, a := range s.alts {
		if a.named.allFinal() && allFinal(anonStates(a.anon)) {
			return true
		}
	}
	return false
}

func (s *allQState) Size() int {
	n := 1
	for _, a := range s.alts {
		n += a.named.size() + sumSizes(anonStates(a.anon))
	}
	return n
}

func (s *allQState) trans(act expr.Action, sh sharing) State {
	p := s.e.Param
	// Anonymous branches and fresh ones before they bind walk with p
	// free; a named branch walks with p bound to its value.
	un := sh.free(p)
	template := s.initial()
	// Values that some $p pattern of the body matches act under: binding
	// them is what an anonymous consumption of act rules out. They are
	// also the only values whose binding can change how the body treats
	// act. Free parameters never match (Pattern.Match, StrictMatch), so
	// for any other value v the branch bound to v sees act exactly as the
	// unbound one does, and fails wherever the unbound one fails: the
	// fork rule that (2b) and (3b) apply.
	taint := s.strictA.BindingMatchesIn(p, act, sh.env)
	var next []allQAlt
	// add applies ρ to a candidate alternative, in which named[changed]
	// (if changed ≥ 0) is the one branch this step changed, and keeps it;
	// equal alternatives are merged at the end.
	add := func(a allQAlt, changed int) {
		// ρ, branch release: a named branch whose state equals a fresh
		// branch for its value is indistinguishable from an untouched
		// one (it contributed only complete rounds) and is dropped — a
		// later action mentioning the value forks it again identically.
		// At the top level only the changed branch can be released: the
		// others passed this test, under the same empty binding, when
		// their states were made. Inside another quantifier's branch
		// this state may have been made under another binding (a
		// template or generic state walked for a fresh value), so every
		// named branch is tested. The anonymous branches kept beside a
		// released one are other branches than it, so they can never be
		// bound to its value: it joins their exclusions. Anonymous
		// branches equal to the template are untouched by definition;
		// final inert ones can never act again and their finality does
		// not constrain anything, so both kinds drop. (The infinite
		// universe keeps dropping sound even for branches with
		// exclusions: an untouched branch can stand for any value never
		// mentioned at all.)
		var released []string
		if changed >= 0 || sh.env != nil && len(a.named) > 0 {
			if changed < 0 {
				a.named = slices.Clone(a.named) // shared with the predecessor
			}
			kept := a.named[:0]
			for i := range a.named {
				b := &a.named[i]
				if (i == changed || sh.env != nil) && s.releases(b, p, sh) {
					released = append(released, b.val)
					continue
				}
				kept = append(kept, *b)
			}
			a.named = kept.canonical(p)
		}
		// Copy before filtering: the incoming slice may alias the
		// predecessor state's (immutable) branch set.
		anon := make([]anonBranch, 0, len(a.anon))
		for _, m := range a.anon {
			if sameState(m.st, template) || un.env != nil && hashIn(m.st, un.env) == hashIn(template, un.env) &&
				keyIn(m.st, un.env) == keyIn(template, un.env) {
				continue
			}
			if m.st.Final() && m.st.inert() {
				continue
			}
			m.excl = mergeExcl(m.excl, released)
			anon = append(anon, m)
		}
		a.anon = sortAnon(anon)
		next = append(next, a)
	}

	for _, alt := range s.alts {
		// (1) An existing named branch consumes the action.
		for i, b := range alt.named {
			if !branchCanAct(b.val, act, s.strictA, un.env) {
				continue // the action cannot belong to this branch's word
			}
			bs := sh.bind(p, b.val)
			nst := bs.trans(b.st, act)
			if nst == nil {
				continue
			}
			named := make(branchSet, len(alt.named))
			copy(named, alt.named)
			named[i] = branch{val: b.val, st: compress(nst)}
			add(allQAlt{named: named, anon: alt.anon}, i)
		}

		// (2) An existing anonymous branch consumes the action...
		for i, m := range alt.anon {
			if i > 0 && sameShape(alt.anon[i], alt.anon[i-1]) {
				continue // interchangeable instances
			}
			// (2a) ... without binding its value. Consuming with p free
			// commits the branch to being none of the taint values.
			nm := un.trans(m.st, act)
			if nm != nil {
				anon := make([]anonBranch, len(alt.anon))
				copy(anon, alt.anon)
				anon[i] = anonBranch{st: compress(nm), excl: mergeExcl(m.excl, taint)}
				add(allQAlt{named: alt.named, anon: anon}, -1)
			}
			// (2b) ... by binding its value to a newly mentioned one —
			// unless the branch's history has excluded that value, or
			// the fork rule says the bound branch fails like (2a) did.
			for j := range act.Args {
				v, ok := newValue(act, j, alt.named)
				if !ok || containsStr(m.excl, v) || nm == nil && !containsStr(taint, v) {
					continue
				}
				bs := sh.bind(p, v)
				bm := bs.trans(m.st, act)
				if bm == nil {
					continue
				}
				anon := make([]anonBranch, 0, len(alt.anon)-1)
				anon = append(anon, alt.anon[:i]...)
				anon = append(anon, alt.anon[i+1:]...)
				named := make(branchSet, len(alt.named), len(alt.named)+1)
				copy(named, alt.named)
				named = append(named, branch{val: v, st: compress(bm)})
				add(allQAlt{named: named, anon: anon}, len(named)-1)
			}
		}

		// (3) A fresh branch starts with this action...
		// (3a) ... anonymously (matching a parameter-free atom).
		nm := un.trans(template, act)
		if nm != nil {
			anon := make([]anonBranch, len(alt.anon), len(alt.anon)+1)
			copy(anon, alt.anon)
			anon = append(anon, anonBranch{st: compress(nm), excl: append([]string(nil), taint...)})
			add(allQAlt{named: alt.named, anon: anon}, -1)
		}
		// (3b) ... bound to a newly mentioned value, unless the fork rule
		// says it fails like (3a) did.
		for j := range act.Args {
			v, ok := newValue(act, j, alt.named)
			if !ok || nm == nil && !containsStr(taint, v) {
				continue
			}
			bs := sh.bind(p, v)
			bm := bs.trans(template, act)
			if bm == nil {
				continue
			}
			named := make(branchSet, len(alt.named), len(alt.named)+1)
			copy(named, alt.named)
			named = append(named, branch{val: v, st: compress(bm)})
			add(allQAlt{named: named, anon: alt.anon}, len(named)-1)
		}
	}
	if len(next) == 0 {
		return nil
	}
	return sealed(&allQState{e: s.e, sigma: s.sigma, strictA: s.strictA, nullable: s.nullable, alts: sortDedupQAlts(next, p)})
}

// releases reports ρ's branch release test: the branch's state, under
// the walk sh with p bound to its value, equals a fresh branch for the
// value, σ(y) under the same binding. Equal states agree on finality,
// and equal template states are equal under any binding, so only the
// rest compare hashes, and keys if those are equal.
func (s *allQState) releases(b *branch, p string, sh sharing) bool {
	template := s.initial()
	if b.st.Final() != s.nullable {
		return false
	}
	if sameState(b.st, template) {
		return true
	}
	if b.hash(p, sh.env) != hashBound(template, p, b.val, sh.env) {
		return false
	}
	bs := sh.bind(p, b.val)
	return keyIn(b.st, bs.env) == keyIn(template, bs.env)
}

func (s *allQState) inert() bool { return false }

func (s *allQState) internParts(c *Cache) State {
	alts, changed := canonEach(s.alts, func(a allQAlt) (allQAlt, bool) {
		named, nc := a.named.internParts(c)
		anon, ac := canonEach(a.anon, func(ab anonBranch) (anonBranch, bool) {
			st, changed := c.canonOf(ab.st)
			return anonBranch{st, ab.excl}, changed
		})
		return allQAlt{named, anon}, nc || ac
	})
	return reuse(s, changed, func(n *allQState) { n.alts = alts })
}
