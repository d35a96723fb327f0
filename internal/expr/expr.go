package expr

import (
	"fmt"
	"strconv"
	"strings"
)

// Op identifies an interaction-expression operator (rows of Table 8).
type Op int

const (
	// OpAtom is an atomic expression: a single action a.
	OpAtom Op = iota
	// OpEmpty is the neutral expression ε with Φ = Ψ = {〈〉}. It has no
	// surface syntax of its own in the paper; the option operator
	// introduces it, and the parser writes it "()".
	OpEmpty
	// OpOption is y? with Φ(y) ∪ {〈〉}.
	OpOption
	// OpSeq is sequential composition y1 - y2 - ... (n-ary, associative).
	OpSeq
	// OpSeqIter is sequential iteration y* (Kleene closure).
	OpSeqIter
	// OpPar is parallel composition y1 || y2 || ... (shuffle, n-ary).
	OpPar
	// OpParIter is parallel iteration y# (shuffle closure).
	OpParIter
	// OpOr is disjunction y1 | y2 | ... (union, n-ary).
	OpOr
	// OpAnd is strict conjunction y1 & y2 & ... (intersection, n-ary).
	OpAnd
	// OpSync is synchronization/coupling y1 @ y2 @ ...: open-world
	// conjunction where each operand constrains only the actions of its
	// own alphabet.
	OpSync
	// OpMult is the multiplier mult(n, y): n concurrent and independent
	// instances of y (n-fold shuffle), as in Fig 6.
	OpMult
	// OpAnyQ is the disjunction quantifier "any p: y" (for some p).
	OpAnyQ
	// OpAllQ is the parallel quantifier "all p: y" (for all p,
	// concurrently and independently).
	OpAllQ
	// OpSyncQ is the synchronization quantifier "syncq p: y".
	OpSyncQ
	// OpConQ is the conjunction quantifier "conq p: y".
	OpConQ
)

var opNames = map[Op]string{
	OpAtom:    "atom",
	OpEmpty:   "empty",
	OpOption:  "option",
	OpSeq:     "seq",
	OpSeqIter: "iter",
	OpPar:     "par",
	OpParIter: "pariter",
	OpOr:      "or",
	OpAnd:     "and",
	OpSync:    "sync",
	OpMult:    "mult",
	OpAnyQ:    "any",
	OpAllQ:    "all",
	OpSyncQ:   "syncq",
	OpConQ:    "conq",
}

// String returns the operator's name.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Quantifier reports whether the operator binds a parameter.
func (o Op) Quantifier() bool {
	switch o {
	case OpAnyQ, OpAllQ, OpSyncQ, OpConQ:
		return true
	}
	return false
}

// Expr is an immutable interaction expression. Build values with the
// constructor functions (Atom, Seq, Par, ...); the zero value is not a
// valid expression.
type Expr struct {
	Op    Op
	Atom  Action  // OpAtom only
	Kids  []*Expr // operands (n-ary ops, option, iterations, quantifier body)
	Param string  // OpAnyQ/OpAllQ/OpSyncQ/OpConQ: bound parameter
	N     int     // OpMult: multiplicity (≥ 1)

	str  string // canonical form, computed at construction
	hash uint64 // HashKey(str)
}

// String returns the canonical parser syntax of the expression. Two
// expressions are structurally equal iff their String values are equal.
func (e *Expr) String() string { return e.str }

// Key is an alias for String kept for symmetry with the state model.
func (e *Expr) Key() string { return e.str }

// Hash is HashKey(e.String()), computed once at construction: the state
// engine folds it into the ids of the state nodes that name e.
func (e *Expr) Hash() uint64 { return e.hash }

// setStr sets the canonical form and its hash.
func (e *Expr) setStr(s string) {
	e.str = s
	e.hash = HashKey(s)
}

// Equal reports structural equality.
func (e *Expr) Equal(f *Expr) bool {
	if e == f {
		return true
	}
	if e == nil || f == nil {
		return false
	}
	return e.str == f.str
}

// Atom returns an atomic expression for a single action.
func Atom(a Action) *Expr {
	e := &Expr{Op: OpAtom, Atom: a}
	e.setStr(a.String())
	return e
}

// AtomNamed is shorthand for Atom(Act(name, args...)).
func AtomNamed(name string, args ...Arg) *Expr { return Atom(Act(name, args...)) }

// Empty returns the neutral expression ε.
func Empty() *Expr {
	e := &Expr{Op: OpEmpty}
	e.setStr("()")
	return e
}

// Option returns y?: Φ(y) ∪ {〈〉}.
func Option(y *Expr) *Expr {
	e := &Expr{Op: OpOption, Kids: []*Expr{y}}
	e.finish()
	return e
}

// nary flattens nested applications of the same associative operator and
// applies identity-element simplifications that hold in the formal
// semantics (Φ and Ψ are unchanged):
//
//	seq:  ε is the neutral element of concatenation
//	par:  ε is the neutral element of shuffle
//
// For or/and/sync, ε is NOT dropped (or(ε,y) = option(y) differs from y).
func nary(op Op, dropEmpty bool, kids []*Expr) *Expr {
	flat := make([]*Expr, 0, len(kids))
	for _, k := range kids {
		if k == nil {
			panic("expr: nil operand")
		}
		switch {
		case k.Op == op:
			flat = append(flat, k.Kids...)
		case dropEmpty && k.Op == OpEmpty:
			// identity element: skip
		default:
			flat = append(flat, k)
		}
	}
	switch len(flat) {
	case 0:
		return Empty()
	case 1:
		return flat[0]
	}
	e := &Expr{Op: op, Kids: flat}
	e.finish()
	return e
}

// Seq returns the sequential composition y1 - y2 - ... of its operands.
func Seq(kids ...*Expr) *Expr { return nary(OpSeq, true, kids) }

// Par returns the parallel composition (shuffle) y1 || y2 || ...
func Par(kids ...*Expr) *Expr { return nary(OpPar, true, kids) }

// Or returns the disjunction y1 | y2 | ...
func Or(kids ...*Expr) *Expr { return nary(OpOr, false, kids) }

// And returns the strict conjunction y1 & y2 & ...
func And(kids ...*Expr) *Expr { return nary(OpAnd, false, kids) }

// Sync returns the synchronization (coupling) y1 @ y2 @ ...
func Sync(kids ...*Expr) *Expr { return nary(OpSync, false, kids) }

// SeqIter returns the sequential iteration y*.
func SeqIter(y *Expr) *Expr {
	e := &Expr{Op: OpSeqIter, Kids: []*Expr{y}}
	e.finish()
	return e
}

// ParIter returns the parallel iteration y# (arbitrarily many concurrent
// and independent traversals of y).
func ParIter(y *Expr) *Expr {
	e := &Expr{Op: OpParIter, Kids: []*Expr{y}}
	e.finish()
	return e
}

// Mult returns mult(n, y): exactly n concurrent, independent instances of
// y. Mult(1, y) is y itself and Mult(0, y) is ε.
func Mult(n int, y *Expr) *Expr {
	if n < 0 {
		panic("expr: negative multiplicity")
	}
	switch n {
	case 0:
		return Empty()
	case 1:
		return y
	}
	e := &Expr{Op: OpMult, Kids: []*Expr{y}, N: n}
	e.finish()
	return e
}

func quant(op Op, p string, y *Expr) *Expr {
	if !validIdent(p) {
		panic(fmt.Sprintf("expr: invalid parameter name %q", p))
	}
	e := &Expr{Op: op, Kids: []*Expr{y}, Param: p}
	e.finish()
	return e
}

// AnyQ returns the disjunction quantifier "any p: y" — y must be traversed
// for exactly one arbitrarily chosen value of p.
func AnyQ(p string, y *Expr) *Expr { return quant(OpAnyQ, p, y) }

// AllQ returns the parallel quantifier "all p: y" — y may be traversed
// concurrently and independently for all values of p.
func AllQ(p string, y *Expr) *Expr { return quant(OpAllQ, p, y) }

// SyncQ returns the synchronization quantifier "syncq p: y".
func SyncQ(p string, y *Expr) *Expr { return quant(OpSyncQ, p, y) }

// ConQ returns the conjunction quantifier "conq p: y".
func ConQ(p string, y *Expr) *Expr { return quant(OpConQ, p, y) }

// Activity models the paper's activity-to-action mapping (footnote 6): an
// activity A with positive duration is the sequence of the two atomic
// actions A.s (start) and A.t (termination).
func Activity(name string, args ...Arg) *Expr {
	return Seq(Atom(Act(name+"_s", args...)), Atom(Act(name+"_t", args...)))
}

// Operator precedence for printing and parsing, loosest to tightest:
//
//	quantifiers < | < & < @ < || < - < postfix (? * #) and atoms
const (
	precQuant = iota
	precOr
	precAnd
	precSync
	precPar
	precSeq
	precPostfix
)

func (o Op) prec() int {
	switch o {
	case OpAnyQ, OpAllQ, OpSyncQ, OpConQ:
		return precQuant
	case OpOr:
		return precOr
	case OpAnd:
		return precAnd
	case OpSync:
		return precSync
	case OpPar:
		return precPar
	case OpSeq:
		return precSeq
	default:
		return precPostfix
	}
}

func (o Op) infix() string {
	switch o {
	case OpSeq:
		return " - "
	case OpPar:
		return " || "
	case OpOr:
		return " | "
	case OpAnd:
		return " & "
	case OpSync:
		return " @ "
	}
	return ""
}

// finish computes the canonical string once at construction time.
func (e *Expr) finish() {
	var b strings.Builder
	e.render(&sink{b: &b}, precQuant, nil)
	e.setStr(b.String())
}

// render writes the canonical form of e in a context of precedence
// outer, with the parameters en binds read as their values (WriteIn).
func (e *Expr) render(b *sink, outer int, en *Env) {
	p := e.Op.prec()
	// Parenthesize when the context binds at least as tightly, except at
	// the top level. Same-precedence nesting only arises after manual
	// construction of e.g. seq-of-seq, which nary flattening removes.
	need := p < outer
	if need {
		b.putc('(')
	}
	if en != nil && strings.IndexByte(e.str, '$') < 0 {
		// No parameter occurs, so the binding changes nothing: the
		// canonical form is e.str, which never includes e's own parens.
		b.put(e.str)
		if need {
			b.putc(')')
		}
		return
	}
	switch e.Op {
	case OpAtom:
		e.Atom.writeIn(b, en)
	case OpEmpty:
		b.put("()")
	case OpOption:
		e.Kids[0].render(b, precPostfix, en)
		b.putc('?')
	case OpSeqIter:
		e.Kids[0].render(b, precPostfix, en)
		b.putc('*')
	case OpParIter:
		e.Kids[0].render(b, precPostfix, en)
		b.putc('#')
	case OpSeq, OpPar, OpOr, OpAnd, OpSync:
		sep := e.Op.infix()
		for i, k := range e.Kids {
			if i > 0 {
				b.put(sep)
			}
			k.render(b, p+1, en)
		}
	case OpMult:
		b.put("mult(")
		b.put(strconv.Itoa(e.N))
		b.put(", ")
		e.Kids[0].render(b, precQuant, en)
		b.putc(')')
	case OpAnyQ, OpAllQ, OpSyncQ, OpConQ:
		b.put(e.Op.String())
		b.putc(' ')
		b.put(e.Param)
		b.put(": ")
		if _, ok := en.Lookup(e.Param); ok {
			en = &Env{P: e.Param, Up: en} // the quantifier hides the outer binding
		}
		e.Kids[0].render(b, precQuant+1, en)
	default:
		panic(fmt.Sprintf("expr: unknown op %v", e.Op))
	}
	if need {
		b.putc(')')
	}
}

// Size returns the number of operator and atom nodes in the expression.
func (e *Expr) Size() int {
	n := 1
	for _, k := range e.Kids {
		n += k.Size()
	}
	return n
}

// Depth returns the height of the expression tree (atoms have depth 1).
func (e *Expr) Depth() int {
	d := 0
	for _, k := range e.Kids {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

// Walk calls fn for every node of the expression in preorder. It stops
// descending below a node when fn returns false.
func (e *Expr) Walk(fn func(*Expr) bool) {
	if !fn(e) {
		return
	}
	for _, k := range e.Kids {
		k.Walk(fn)
	}
}

// Actions returns every distinct atom action occurring in the expression,
// in first-occurrence order.
func (e *Expr) Actions() []Action {
	var out []Action
	seen := make(map[string]bool)
	e.Walk(func(n *Expr) bool {
		if n.Op == OpAtom {
			if k := n.Atom.Key(); !seen[k] {
				seen[k] = true
				out = append(out, n.Atom)
			}
		}
		return true
	})
	return out
}
