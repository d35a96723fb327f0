// Package complexity implements the expression classification and
// state-growth analyses of Sec 6 of the paper. The paper's headline
// results, which the classifier reproduces syntactically:
//
//   - quasi-regular expressions (no parallel iteration, no quantifiers)
//     are "harmless": the cost of a state transition is bounded by a
//     constant independent of the number of actions processed;
//   - completely and uniformly quantified expressions (every quantifier
//     parameter occurs in every atom of its body, no free parameters) are
//     "benign": state sizes grow polynomially — in practice with degree
//     rarely above 1 or 2 — in the length of the processed word;
//   - malignant expressions exist (exponential state growth) but must be
//     constructed deliberately together with an adversarial word.
//
// The growth half of the package measures actual state sizes along a word
// and estimates the growth class empirically; the E9–E11 benchmarks of
// the root bench_test.go drive its three reference expressions.
package complexity

import (
	"fmt"

	"repro/internal/expr"
)

// Class is the benignity classification of an interaction expression.
type Class int

const (
	// Harmless: quasi-regular; transition cost is O(1) in the word length.
	Harmless Class = iota
	// Benign: state size grows at most polynomially in the word length.
	Benign
	// Unknown: the syntactic criteria are inconclusive; the expression
	// may be malignant (exponential growth for adversarial words).
	Unknown
)

// String returns the class name as used in the paper.
func (c Class) String() string {
	switch c {
	case Harmless:
		return "harmless (quasi-regular)"
	case Benign:
		return "benign (polynomial)"
	case Unknown:
		return "potentially malignant"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classify applies the syntactic benignity criteria of Sec 6 to e and
// returns the class together with human-readable reasons.
func Classify(e *expr.Expr) (Class, []string) {
	var reasons []string
	if !e.Closed() {
		reasons = append(reasons, "expression has free parameters (not completely quantified)")
		return Unknown, reasons
	}
	if QuasiRegular(e) {
		reasons = append(reasons, "no parallel iteration and no quantifiers (quasi-regular)")
		return Harmless, reasons
	}
	ok := true
	if hasParIter(e) {
		reasons = append(reasons, "contains parallel iteration (#), growth not bounded by the quantifier criteria")
		ok = false
	}
	var bad []string
	if uniformlyQuantified(e, &bad) {
		reasons = append(reasons, "completely and uniformly quantified: every quantifier parameter occurs in every atom of its body")
	} else {
		for _, m := range bad {
			reasons = append(reasons, m)
		}
		ok = false
	}
	if ok {
		return Benign, reasons
	}
	return Unknown, reasons
}

// QuasiRegular reports whether e contains neither parallel iterations nor
// quantifiers (Sec 6: such expressions are harmless).
func QuasiRegular(e *expr.Expr) bool {
	quasi := true
	e.Walk(func(n *expr.Expr) bool {
		if n.Op == expr.OpParIter || n.Op.Quantifier() {
			quasi = false
			return false
		}
		return true
	})
	return quasi
}

func hasParIter(e *expr.Expr) bool {
	found := false
	e.Walk(func(n *expr.Expr) bool {
		if n.Op == expr.OpParIter {
			found = true
			return false
		}
		return true
	})
	return found
}

// uniformlyQuantified checks that for every quantifier "Q p: y" in e, the
// parameter p occurs in every atom of y. Uniform quantification keeps
// quantifier states deterministic per value: each action belongs to
// exactly one branch, so no alternative sets build up (the "normal case
// of quantified expressions in practice" per Sec 6).
func uniformlyQuantified(e *expr.Expr, bad *[]string) bool {
	ok := true
	e.Walk(func(n *expr.Expr) bool {
		if !n.Op.Quantifier() {
			return true
		}
		body := n.Kids[0]
		body.Walk(func(m *expr.Expr) bool {
			if m.Op == expr.OpAtom {
				if !atomUses(m.Atom, n.Param) {
					ok = false
					*bad = append(*bad, fmt.Sprintf(
						"atom %s in body of quantifier over %s does not mention the parameter (non-uniform)",
						m.Atom, n.Param))
				}
			}
			// A shadowing inner quantifier re-binds the name; occurrences
			// below it do not count for the outer parameter.
			return !(m.Op.Quantifier() && m.Param == n.Param)
		})
		return true
	})
	return ok
}

func atomUses(a expr.Action, p string) bool {
	for _, arg := range a.Args {
		if arg.Param && arg.Name == p {
			return true
		}
	}
	return false
}
