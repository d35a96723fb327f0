package expr

import "strings"

// Env is a binding environment: a chain of frames, innermost first, each
// binding parameter P to value V. A frame with an empty V marks P as
// unbound, hiding any outer binding of the same name (a quantifier
// shadowing an outer one). The nil *Env binds nothing.
//
// An Env lets a caller treat an expression or action with free
// parameters as its concretion — y_ω^p, the substituted form — without
// building it: matching, alphabet tests and canonical rendering read a
// bound parameter as its value.
type Env struct {
	P, V string
	Up   *Env
}

// Lookup returns the value bound to p, and false if p is unbound.
func (en *Env) Lookup(p string) (string, bool) {
	for ; en != nil; en = en.Up {
		if en.P == p {
			return en.V, en.V != ""
		}
	}
	return "", false
}

// MatchIn is StrictMatch of the atom with its parameters read under en:
// a bound parameter matches exactly its value, an unbound one nothing.
func (a Action) MatchIn(c Action, en *Env) bool {
	if a.Name != c.Name || len(a.Args) != len(c.Args) {
		return false
	}
	for i, arg := range a.Args {
		v := arg.Name
		if arg.Param {
			var ok bool
			if v, ok = en.Lookup(arg.Name); !ok {
				return false
			}
		}
		if v != c.Args[i].Name {
			return false
		}
	}
	return true
}

// WriteIn writes the canonical form of the action with every parameter
// en binds replaced by its value: the String of the substituted action.
func (a Action) WriteIn(b *strings.Builder, en *Env) {
	b.WriteString(a.Name)
	if len(a.Args) == 0 {
		return
	}
	b.WriteByte('(')
	for i, arg := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if arg.Param {
			if v, ok := en.Lookup(arg.Name); ok {
				b.WriteString(v)
				continue
			}
			b.WriteByte('$')
		}
		b.WriteString(arg.Name)
	}
	b.WriteByte(')')
}

// WriteIn writes the canonical form of e with every free parameter en
// binds replaced by its value: the String of the substituted expression,
// without building it. A quantifier of e hides en's binding of its own
// parameter.
func (e *Expr) WriteIn(b *strings.Builder, en *Env) {
	if en == nil {
		b.WriteString(e.str)
		return
	}
	e.render(b, precQuant, en)
}
