package state

import (
	"slices"
	"strings"

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
	alts     []allQAlt
	keyed
}

type allQAlt struct {
	named branchSet    // sorted by value
	anon  []anonBranch // sorted by key
}

// anonBranch is one branch with p unbound, together with the values its
// consumption history has ruled out as bindings.
type anonBranch struct {
	st   State
	excl []string // sorted
}

func (ab anonBranch) key() string {
	if len(ab.excl) == 0 {
		return ab.st.Key()
	}
	return ab.st.Key() + "!" + strings.Join(ab.excl, ",")
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
	slices.SortFunc(abs, func(x, y anonBranch) int { return strings.Compare(x.key(), y.key()) })
	return abs
}

func anonStates(abs []anonBranch) []State {
	out := make([]State, len(abs))
	for i, ab := range abs {
		out[i] = ab.st
	}
	return out
}

func (a allQAlt) key() string {
	var b strings.Builder
	b.WriteByte('{')
	b.WriteString(a.named.key())
	b.WriteByte('|')
	for i, ab := range a.anon {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ab.key())
	}
	b.WriteByte('}')
	return b.String()
}

func newAllQState(e *expr.Expr) State {
	s := &allQState{e: e, sigma: sigma{y: e.Kids[0]}, strictA: expr.AlphabetOf(e.Kids[0]), alts: []allQAlt{{}}}
	s.nullable = s.initial().Final()
	return s
}

func (s *allQState) Key() string {
	if s.key == "" {
		keys := make([]string, len(s.alts))
		for i, a := range s.alts {
			keys[i] = a.key()
		}
		slices.Sort(keys)
		s.key = "all<" + s.e.Key() + ">{" + strings.Join(keys, ";") + "}"
	}
	return s.key
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
	template := s.initial()
	templateKey := template.Key()
	// Values that some $p pattern of the body matches act under: binding
	// them is what an anonymous consumption of act rules out. They are
	// also the only values whose binding can change how the body treats
	// act. Free parameters never match (Pattern.Match, StrictMatch), so
	// for any other value v the branch bound to v sees act exactly as the
	// unbound one does, and fails wherever the unbound one fails: the
	// fork rule that (2b) and (3b) apply.
	taint := s.strictA.BindingMatches(p, act)
	// σ(y_v) keys for named branches that do not carry theirs yet (new
	// branches, restored checkpoints), computed once per call.
	var freshKeys map[string]string
	freshKey := func(v string) string {
		k, ok := freshKeys[v]
		if !ok {
			if freshKeys == nil {
				freshKeys = make(map[string]string)
			}
			k = template.subst(p, v).Key()
			freshKeys[v] = k
		}
		return k
	}
	var next []allQAlt
	seen := make(map[string]bool)
	add := func(a allQAlt) {
		// ρ, branch release: a named branch whose state equals a fresh
		// branch for its value is indistinguishable from an untouched
		// one (it contributed only complete rounds) and is dropped — a
		// later action mentioning the value forks it again identically.
		// The anonymous branches kept beside it are other branches than
		// the released one, so they can never be bound to its value: it
		// joins their exclusions. Anonymous branches equal to the
		// template are untouched by definition; final inert ones can
		// never act again and their finality does not constrain
		// anything, so both kinds drop. (The infinite universe keeps
		// dropping sound even for branches with exclusions: an untouched
		// branch can stand for any value never mentioned at all.)
		// Copy before filtering: the incoming slices may alias the
		// predecessor state's (immutable) branch sets.
		named := make(branchSet, 0, len(a.named))
		var released []string
		for _, b := range a.named {
			b.st = compress(b.st)
			if b.fresh == "" {
				b.fresh = freshKey(b.val)
			}
			if b.st.Key() == b.fresh {
				released = append(released, b.val)
				continue
			}
			named = append(named, b)
		}
		a.named = named.canonical()
		anon := make([]anonBranch, 0, len(a.anon))
		for _, m := range a.anon {
			if m.st.Key() == templateKey {
				continue
			}
			if m.st.Final() && m.st.inert() {
				continue
			}
			m.excl = mergeExcl(m.excl, released)
			anon = append(anon, m)
		}
		a.anon = sortAnon(anon)
		k := a.key()
		if !seen[k] {
			seen[k] = true
			next = append(next, a)
		}
	}

	for _, alt := range s.alts {
		fresh := newValues(act, alt.named)

		// (1) An existing named branch consumes the action.
		for i, b := range alt.named {
			if !branchCanAct(b.val, act, s.strictA) {
				continue // the action cannot belong to this branch's word
			}
			nst := sh.trans(b.st, act)
			if nst == nil {
				continue
			}
			named := make(branchSet, len(alt.named))
			copy(named, alt.named)
			named[i].st = nst
			add(allQAlt{named: named, anon: alt.anon})
		}

		// (2) An existing anonymous branch consumes the action...
		for i, m := range alt.anon {
			if i > 0 && alt.anon[i].key() == alt.anon[i-1].key() {
				continue // interchangeable instances
			}
			// (2a) ... without binding its value. Consuming with p free
			// commits the branch to being none of the taint values.
			nm := sh.trans(m.st, act)
			if nm != nil {
				anon := make([]anonBranch, len(alt.anon))
				copy(anon, alt.anon)
				anon[i] = anonBranch{st: compress(nm), excl: mergeExcl(m.excl, taint)}
				add(allQAlt{named: alt.named, anon: anon})
			}
			// (2b) ... by binding its value to a newly mentioned one —
			// unless the branch's history has excluded that value, or
			// the fork rule says the bound branch fails like (2a) did.
			for _, v := range fresh {
				if containsStr(m.excl, v) || nm == nil && !containsStr(taint, v) {
					continue
				}
				bm := m.st.subst(p, v).trans(act, sh)
				if bm == nil {
					continue
				}
				anon := make([]anonBranch, 0, len(alt.anon)-1)
				anon = append(anon, alt.anon[:i]...)
				anon = append(anon, alt.anon[i+1:]...)
				named := make(branchSet, len(alt.named), len(alt.named)+1)
				copy(named, alt.named)
				named = append(named, branch{val: v, st: bm})
				add(allQAlt{named: named, anon: anon})
			}
		}

		// (3) A fresh branch starts with this action...
		// (3a) ... anonymously (matching a parameter-free atom).
		nm := sh.trans(template, act)
		if nm != nil {
			anon := make([]anonBranch, len(alt.anon), len(alt.anon)+1)
			copy(anon, alt.anon)
			anon = append(anon, anonBranch{st: compress(nm), excl: append([]string(nil), taint...)})
			add(allQAlt{named: alt.named, anon: anon})
		}
		// (3b) ... bound to a newly mentioned value, unless the fork rule
		// says it fails like (3a) did.
		for _, v := range fresh {
			if nm == nil && !containsStr(taint, v) {
				continue
			}
			bm := template.subst(p, v).trans(act, sh)
			if bm == nil {
				continue
			}
			named := make(branchSet, len(alt.named), len(alt.named)+1)
			copy(named, alt.named)
			named = append(named, branch{val: v, st: bm})
			add(allQAlt{named: named, anon: alt.anon})
		}
	}
	if len(next) == 0 {
		return nil
	}
	return &allQState{e: s.e, sigma: s.sigma, strictA: s.strictA, nullable: s.nullable, alts: next}
}

func (s *allQState) subst(p, v string) State {
	if !s.e.HasFreeParam(p) {
		return s
	}
	ne := s.e.Subst(p, v)
	alts := make([]allQAlt, len(s.alts))
	for i, a := range s.alts {
		anon := make([]anonBranch, len(a.anon))
		for j, ab := range a.anon {
			anon[j] = anonBranch{st: ab.st.subst(p, v), excl: ab.excl}
		}
		alts[i] = allQAlt{
			named: a.named.subst(p, v).canonical(),
			anon:  sortAnon(anon),
		}
	}
	return &allQState{e: ne, sigma: sigma{y: ne.Kids[0]}, strictA: expr.AlphabetOf(ne.Kids[0]), nullable: s.nullable, alts: alts}
}

func (s *allQState) inert() bool { return false }

func (s *allQState) internParts(c *Cache) State {
	alts := make([]allQAlt, len(s.alts))
	for i, a := range s.alts {
		anon := make([]anonBranch, len(a.anon))
		for j, ab := range a.anon {
			anon[j] = anonBranch{st: c.Canon(ab.st), excl: ab.excl}
		}
		alts[i] = allQAlt{named: a.named.internParts(c), anon: anon}
	}
	return &allQState{e: s.e, sigma: s.sigma, strictA: s.strictA, nullable: s.nullable, alts: alts, keyed: s.keyed}
}
