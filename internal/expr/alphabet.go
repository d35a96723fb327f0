package expr

import (
	"sort"
	"strings"
)

// PatKind classifies one position of an alphabet pattern.
type PatKind int

const (
	// PatValue matches exactly one concrete value.
	PatValue PatKind = iota
	// PatWild matches any concrete value. It arises from parameters that
	// are bound by a quantifier inside the expression whose alphabet is
	// being computed: α(any p: y) = ∪_ω α(y_ω^p), so the position ranges
	// over all of Ω.
	PatWild
	// PatFree matches nothing. It arises from parameters that are free in
	// the expression: until a surrounding quantifier substitutes a value,
	// no concrete action can instantiate the position.
	PatFree
)

// PatArg is one argument position of an alphabet pattern.
type PatArg struct {
	Kind PatKind
	Name string // value for PatValue, parameter name for PatFree
}

// Pattern is one element of an expression alphabet α(x): an action shape
// against which concrete actions are matched.
type Pattern struct {
	Name string
	Args []PatArg
}

// Match reports whether the concrete action c is an instance of the
// pattern.
func (p Pattern) Match(c Action) bool { return p.MatchIn(c, nil) }

// MatchIn is Match with the free parameters read under en: a PatFree
// position matches exactly the value en binds to its parameter, and
// nothing while it is unbound.
func (p Pattern) MatchIn(c Action, en *Env) bool {
	if p.Name != c.Name || len(p.Args) != len(c.Args) {
		return false
	}
	for i, a := range p.Args {
		if c.Args[i].Param {
			return false
		}
		switch a.Kind {
		case PatValue:
			if c.Args[i].Name != a.Name {
				return false
			}
		case PatFree:
			if v, ok := en.Lookup(a.Name); !ok || v != c.Args[i].Name {
				return false
			}
		}
	}
	return true
}

// Key returns a canonical identity string for the pattern.
func (p Pattern) Key() string {
	if len(p.Args) == 0 {
		return p.Name
	}
	var b strings.Builder
	b.WriteString(p.Name)
	b.WriteByte('(')
	for i, a := range p.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		switch a.Kind {
		case PatValue:
			b.WriteString(a.Name)
		case PatWild:
			b.WriteByte('*')
		case PatFree:
			b.WriteString("$" + a.Name)
		}
	}
	b.WriteByte(')')
	return b.String()
}

// Alphabet is the alphabet α(x) of an expression: a set of patterns.
type Alphabet struct {
	pats []Pattern
	keys map[string]bool
}

// Contains reports whether the concrete action c belongs to the alphabet,
// i.e. matches at least one pattern.
func (al *Alphabet) Contains(c Action) bool { return al.ContainsIn(c, nil) }

// ContainsIn is Contains with the free parameters read under en: the
// alphabet of the concretion the binding describes.
func (al *Alphabet) ContainsIn(c Action, en *Env) bool {
	if al == nil {
		return false
	}
	for _, p := range al.pats {
		if p.MatchIn(c, en) {
			return true
		}
	}
	return false
}

// AppendBindingMatches appends to dst, sorted, the distinct values v
// occurring in c for which binding the free parameter p to v makes some
// pattern match c that does not match it unbound. These are exactly the
// bindings under which a state that consumed c with p free would have
// behaved differently had p been bound first — the quantifier states use
// this to mark such values as no longer bindable for branches that
// consumed c unbound. The free parameters other than p are read under
// en; p's own positions stay the bindable ones whatever en binds to p.
// Appending lets a caller keep one scratch slice across calls.
func (al *Alphabet) AppendBindingMatches(dst []string, p string, c Action, en *Env) []string {
	if al == nil {
		return dst
	}
	n := len(dst)
pattern:
	for _, pat := range al.pats {
		if pat.Name != c.Name || len(pat.Args) != len(c.Args) {
			continue
		}
		v := ""
		for i, a := range pat.Args {
			ca := c.Args[i]
			switch a.Kind {
			case PatValue:
				if ca.Param || ca.Name != a.Name {
					continue pattern
				}
			case PatWild:
				if ca.Param {
					continue pattern
				}
			case PatFree:
				if ca.Param {
					continue pattern
				}
				// Only p's own positions can be bound; another free
				// parameter matches its value under en, or nothing.
				if a.Name != p {
					if w, ok := en.Lookup(a.Name); !ok || w != ca.Name {
						continue pattern
					}
					continue
				}
				// Every $p position must agree on the same value.
				if v != "" && v != ca.Name {
					continue pattern
				}
				v = ca.Name
			}
		}
		// v == "" means the pattern has no $p position: it either matched
		// already or never will, independent of the binding.
		if v != "" && !contains(dst[n:], v) {
			dst = append(dst, v)
		}
	}
	sort.Strings(dst[n:]) // callers store the result as a canonical set
	return dst
}

// Patterns returns the patterns of the alphabet in insertion order. The
// returned slice must not be modified.
func (al *Alphabet) Patterns() []Pattern {
	if al == nil {
		return nil
	}
	return al.pats
}

// Len returns the number of distinct patterns.
func (al *Alphabet) Len() int {
	if al == nil {
		return 0
	}
	return len(al.pats)
}

func (al *Alphabet) add(p Pattern) {
	k := p.Key()
	if al.keys[k] {
		return
	}
	al.keys[k] = true
	al.pats = append(al.pats, p)
}

// AlphabetOf computes α(e): one pattern per atom, with argument positions
// classified relative to e. Parameters bound by quantifiers within e become
// wildcards; parameters free in e match nothing until substituted (last
// column of Table 8: alphabets are unions of the operands' alphabets, and
// quantifier alphabets are unions over all concretions of the body).
func AlphabetOf(e *Expr) *Alphabet {
	al := &Alphabet{keys: make(map[string]bool)}
	collectAlphabet(e, nil, al)
	return al
}

func collectAlphabet(e *Expr, bound []string, al *Alphabet) {
	switch e.Op {
	case OpAtom:
		args := make([]PatArg, len(e.Atom.Args))
		for i, a := range e.Atom.Args {
			switch {
			case !a.Param:
				args[i] = PatArg{Kind: PatValue, Name: a.Name}
			case contains(bound, a.Name):
				args[i] = PatArg{Kind: PatWild}
			default:
				args[i] = PatArg{Kind: PatFree, Name: a.Name}
			}
		}
		al.add(Pattern{Name: e.Atom.Name, Args: args})
		return
	case OpAnyQ, OpAllQ, OpSyncQ, OpConQ:
		bound = append(bound, e.Param)
	}
	for _, k := range e.Kids {
		collectAlphabet(k, bound, al)
	}
}
