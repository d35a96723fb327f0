package semantics

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/state"
)

// Differential fuzzing: the operational state model of internal/state
// must agree with this package's Table-8 oracle on every word. The fuzz
// input is decoded into a bounded closed expression plus a short word
// over a fixed action universe, and the two verdicts are compared on
// every prefix (Ψ is prefix-closed, so prefixes catch divergence at the
// earliest action). This is the randomized equivalence test of
// internal/state lifted into a coverage-guided search.

const (
	fuzzMaxDepth = 3
	fuzzMaxNodes = 20
	fuzzMaxWord  = 5
)

// caseReader streams the fuzz input; exhausted input yields zeros, so
// every byte string decodes to some valid case.
type caseReader struct {
	data  []byte
	pos   int
	nodes int
}

func (r *caseReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// fuzzAtom decodes one atomic expression: a small name space with no
// argument, a value argument, or a bound parameter when one is in scope.
func (r *caseReader) fuzzAtom(params []string) *expr.Expr {
	names := []string{"a", "b", "x"}
	name := names[int(r.next())%len(names)]
	switch r.next() % 3 {
	case 0:
		return expr.AtomNamed(name)
	case 1:
		vals := []string{"v1", "v2"}
		return expr.AtomNamed(name, expr.Val(vals[int(r.next())%len(vals)]))
	default:
		if len(params) == 0 {
			return expr.AtomNamed(name)
		}
		return expr.AtomNamed(name, expr.Prm(params[int(r.next())%len(params)]))
	}
}

// fuzzExpr decodes a bounded expression: depth- and node-limited, with
// quantifier parameters scoped so the result is always closed.
func (r *caseReader) fuzzExpr(depth int, params []string) *expr.Expr {
	if depth >= fuzzMaxDepth || r.nodes >= fuzzMaxNodes {
		return r.fuzzAtom(params)
	}
	r.nodes++
	sub := func() *expr.Expr { return r.fuzzExpr(depth+1, params) }
	quantified := func(q func(string, *expr.Expr) *expr.Expr, optBody bool) *expr.Expr {
		p := fmt.Sprintf("p%d", len(params))
		body := r.fuzzExpr(depth+1, append(params, p))
		if optBody {
			// An unrestricted all-quantified body makes Φ empty; keep it
			// optional half the time so finality gets exercised.
			body = expr.Option(body)
		}
		return q(p, body)
	}
	switch r.next() % 13 {
	case 0:
		return r.fuzzAtom(params)
	case 1:
		return expr.Option(sub())
	case 2:
		return expr.Seq(sub(), sub())
	case 3:
		return expr.SeqIter(sub())
	case 4:
		return expr.Par(sub(), sub())
	case 5:
		return expr.ParIter(sub())
	case 6:
		return expr.Or(sub(), sub())
	case 7:
		return expr.And(sub(), sub())
	case 8:
		return expr.Sync(sub(), sub())
	case 9:
		return expr.Mult(2, sub())
	case 10:
		return quantified(expr.AnyQ, false)
	case 11:
		return quantified(expr.AllQ, r.next()%2 == 0)
	default:
		if r.next()%2 == 0 {
			return quantified(expr.SyncQ, false)
		}
		return quantified(expr.ConQ, false)
	}
}

// fuzzSigma is the action universe words are drawn from: plain actions
// and parameterized ones sharing and missing the expression's values.
var fuzzSigma = []expr.Action{
	expr.ConcreteAct("a"),
	expr.ConcreteAct("b"),
	expr.ConcreteAct("x", "v1"),
	expr.ConcreteAct("x", "v2"),
	expr.ConcreteAct("y", "v1"),
}

func (r *caseReader) fuzzWord() Word {
	n := int(r.next()) % (fuzzMaxWord + 1)
	w := make(Word, 0, n)
	for i := 0; i < n; i++ {
		w = append(w, fuzzSigma[int(r.next())%len(fuzzSigma)])
	}
	return w
}

// decodeCase maps arbitrary bytes to one differential test case.
func decodeCase(data []byte) (*expr.Expr, Word) {
	r := &caseReader{data: data}
	e := r.fuzzExpr(0, nil)
	return e, r.fuzzWord()
}

// operationalSeeds are FuzzOperationalVsOracle's structured seeds: each
// byte drives one decoder decision, so these spell out canonical
// operator mixes (iteration under conjunction, coupling, quantifiers
// over shared values).
var operationalSeeds = [][]byte{
	{2, 0, 0, 3, 1, 0, 4, 0, 1, 0, 1},
	{7, 3, 0, 0, 6, 0, 1, 1, 2, 0, 1, 3, 1, 0},
	{10, 2, 0, 2, 0, 2, 0, 5, 2, 3, 4},
	{8, 3, 2, 0, 1, 0, 0, 1, 1, 5, 2, 0, 2, 1, 0},
	{12, 0, 2, 2, 0, 1, 1, 0, 4, 3, 2, 2, 1},
}

// FuzzOperationalVsOracle asserts engine and oracle verdicts agree on
// every prefix of the decoded word. Seed corpus: testdata/fuzz.
func FuzzOperationalVsOracle(f *testing.F) {
	for _, seed := range operationalSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, w := decodeCase(data)
		en, err := state.NewEngine(e)
		if err != nil {
			t.Fatalf("engine rejects generated closed expression %s: %v", e, err)
		}
		o := New(e, len(w))
		for i := 0; i <= len(w); i++ {
			prefix := w[:i]
			got := int(en.Word(prefix))
			want := o.Verdict(prefix)
			if got != want {
				t.Fatalf("expr %s word %s: engine=%d oracle=%d", e, prefix, got, want)
			}
		}
	})
}
