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
func (a Action) WriteIn(b *strings.Builder, en *Env) { a.writeIn(&sink{b: b}, en) }

// HashIn is HashKey of what WriteIn writes, computed without writing it.
func (a Action) HashIn(en *Env) uint64 {
	if en == nil {
		return a.Hash()
	}
	w := sink{h: fnvOffset64}
	a.writeIn(&w, en)
	return w.h
}

func (a Action) writeIn(b *sink, en *Env) {
	b.put(a.Name)
	if len(a.Args) == 0 {
		return
	}
	b.putc('(')
	for i, arg := range a.Args {
		if i > 0 {
			b.putc(',')
		}
		if arg.Param {
			if v, ok := en.Lookup(arg.Name); ok {
				b.put(v)
				continue
			}
			b.putc('$')
		}
		b.put(arg.Name)
	}
	b.putc(')')
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
	e.render(&sink{b: b}, precQuant, en)
}

// HashIn is HashKey of what WriteIn writes, computed without writing it:
// Hash when no parameter occurs, so the binding changes nothing.
func (e *Expr) HashIn(en *Env) uint64 {
	if en == nil || strings.IndexByte(e.str, '$') < 0 {
		return e.hash
	}
	w := sink{h: fnvOffset64}
	e.render(&w, precQuant, en)
	return w.h
}

// sink receives canonical text: it appends it to b, or with b nil folds
// it into the FNV-1a hash h, so that text can be hashed without being
// built.
type sink struct {
	b *strings.Builder
	h uint64
}

func (w *sink) put(s string) {
	if w.b != nil {
		w.b.WriteString(s)
		return
	}
	w.h = hashString(w.h, s)
}

func (w *sink) putc(c byte) {
	if w.b != nil {
		w.b.WriteByte(c)
		return
	}
	w.h = hashByte(w.h, c)
}
