// Package expr defines the abstract syntax of interaction expressions:
// actions with value and parameter arguments, the fourteen operators of the
// formalism (Table 8 of the paper), canonical printing, substitution of
// parameters by values, and alphabet computation.
//
// Expressions are immutable after construction. Their canonical string form
// (String) doubles as identity: two expressions are structurally equal iff
// their strings are equal, and the parser accepts every canonical form back
// (round-trip property, checked in tests).
package expr

import (
	"fmt"
	"strings"
)

// Arg is one argument of an action: either a concrete value ω ∈ Ω or a
// formal parameter p ∈ Π. Values and parameters are disjoint name spaces
// (Ω ∩ Π = ∅ in the paper); the Param flag keeps them apart here.
type Arg struct {
	Param bool   // true: formal parameter; false: concrete value
	Name  string // value or parameter identifier
}

// Val returns a concrete-value argument.
func Val(name string) Arg { return Arg{Name: name} }

// Prm returns a formal-parameter argument.
func Prm(name string) Arg { return Arg{Param: true, Name: name} }

// String renders the argument in parser syntax: values bare, parameters
// with a leading '$' so that free parameters survive a print/parse cycle.
func (a Arg) String() string {
	if a.Param {
		return "$" + a.Name
	}
	return a.Name
}

// Action is an (abstract) action [a0, a1, ..., an] ∈ Γ: a name plus zero or
// more arguments. An action with only value arguments is concrete (∈ Σ).
type Action struct {
	Name string
	Args []Arg
}

// Act builds an action from a name and arguments.
func Act(name string, args ...Arg) Action {
	return Action{Name: name, Args: args}
}

// ConcreteAct builds a concrete action whose arguments are all values.
func ConcreteAct(name string, values ...string) Action {
	args := make([]Arg, len(values))
	for i, v := range values {
		args[i] = Val(v)
	}
	return Action{Name: name, Args: args}
}

// Concrete reports whether every argument is a concrete value (a ∈ Σ).
func (a Action) Concrete() bool {
	for _, arg := range a.Args {
		if arg.Param {
			return false
		}
	}
	return true
}

// Equal reports structural equality of two actions.
func (a Action) Equal(b Action) bool {
	if a.Name != b.Name || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// StrictMatch reports whether the atom a accepts the concrete action c
// under strict matching: same name, same arity, and every argument of a is
// a concrete value equal to the corresponding argument of c. An atom that
// still contains a formal parameter matches nothing; parameters are bound
// only by quantifier-level substitution (see the state model).
func (a Action) StrictMatch(c Action) bool { return a.MatchIn(c, nil) }

// Subst returns the action with every occurrence of parameter p replaced by
// the concrete value v. If p does not occur, the receiver is returned
// unchanged (actions are treated as immutable values).
func (a Action) Subst(p, v string) Action {
	changed := false
	for _, arg := range a.Args {
		if arg.Param && arg.Name == p {
			changed = true
			break
		}
	}
	if !changed {
		return a
	}
	args := make([]Arg, len(a.Args))
	for i, arg := range a.Args {
		if arg.Param && arg.Name == p {
			args[i] = Val(v)
		} else {
			args[i] = arg
		}
	}
	return Action{Name: a.Name, Args: args}
}

// Params returns the set of parameter names occurring in the action.
func (a Action) Params() map[string]bool {
	var ps map[string]bool
	for _, arg := range a.Args {
		if arg.Param {
			if ps == nil {
				ps = make(map[string]bool)
			}
			ps[arg.Name] = true
		}
	}
	return ps
}

// Values returns the concrete values occurring in the action, in order.
func (a Action) Values() []string {
	var vs []string
	for _, arg := range a.Args {
		if !arg.Param {
			vs = append(vs, arg.Name)
		}
	}
	return vs
}

// String renders the action in parser syntax: name or name(arg1,...,argn).
func (a Action) String() string {
	if len(a.Args) == 0 {
		return a.Name
	}
	var b strings.Builder
	b.WriteString(a.Name)
	b.WriteByte('(')
	for i, arg := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(arg.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Key returns a canonical identity string for the action. It equals
// String(); both are kept so call sites can state intent.
func (a Action) Key() string { return a.String() }

// ParseActionString parses a concrete action of the form "name" or
// "name(v1,v2,...)" where all arguments are bare values. It is a
// convenience for command-line tools and wire protocols; the full
// expression parser lives in internal/parse.
func ParseActionString(s string) (Action, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if !validIdent(s) {
			return Action{}, fmt.Errorf("expr: invalid action %q", s)
		}
		return Action{Name: s}, nil
	}
	if !strings.HasSuffix(s, ")") {
		return Action{}, fmt.Errorf("expr: invalid action %q: missing ')'", s)
	}
	name := s[:open]
	if !validIdent(name) {
		return Action{}, fmt.Errorf("expr: invalid action name %q", name)
	}
	inner := s[open+1 : len(s)-1]
	if strings.TrimSpace(inner) == "" {
		return Action{Name: name}, nil
	}
	parts := strings.Split(inner, ",")
	args := make([]Arg, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if !validIdent(p) {
			return Action{}, fmt.Errorf("expr: invalid action argument %q", p)
		}
		args[i] = Val(p)
	}
	return Action{Name: name, Args: args}, nil
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
