package semantics

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/state"
)

// A second differential target for what FuzzOperationalVsOracle's
// decoder cannot build: atoms over two arguments, so that one atom holds
// two bound parameters (Fig 7's call($p,$x)) or a parameter beside a
// value, and nested quantifiers that may reuse the name of an enclosing
// one, so that an inner binding shadows an outer one. The word universe
// has binary actions in both argument orders, with equal arguments, and
// with a value no expression mentions.

// bindingNames are the quantifier parameter names: few, so nested
// quantifiers often reuse an enclosing one's.
var bindingNames = []string{"p", "q"}

// bindingReader decodes fuzz bytes like caseReader; exhausted input
// yields zeros.
type bindingReader struct {
	caseReader
}

// arg decodes one atom argument: a value, or a parameter in scope. A
// name bound twice in scope refers to the innermost binding, which is
// what the expression means too.
func (r *bindingReader) arg(scope []string) expr.Arg {
	vals := []string{"v1", "v2"}
	if len(scope) == 0 || r.next()%2 == 0 {
		return expr.Val(vals[int(r.next())%len(vals)])
	}
	return expr.Prm(scope[int(r.next())%len(scope)])
}

// atom decodes an atom of fixed arity per name: a(), x(_), z(_,_).
func (r *bindingReader) atom(scope []string) *expr.Expr {
	switch r.next() % 3 {
	case 0:
		return expr.AtomNamed("a")
	case 1:
		return expr.AtomNamed("x", r.arg(scope))
	}
	return expr.AtomNamed("z", r.arg(scope), r.arg(scope))
}

func (r *bindingReader) expr(depth int, scope []string) *expr.Expr {
	if depth >= fuzzMaxDepth || r.nodes >= fuzzMaxNodes {
		return r.atom(scope)
	}
	r.nodes++
	sub := func() *expr.Expr { return r.expr(depth+1, scope) }
	quantified := func(q func(string, *expr.Expr) *expr.Expr) *expr.Expr {
		p := bindingNames[int(r.next())%len(bindingNames)]
		return q(p, r.expr(depth+1, append(scope[:len(scope):len(scope)], p)))
	}
	switch r.next() % 12 {
	case 0:
		return r.atom(scope)
	case 1:
		return expr.Option(sub())
	case 2:
		return expr.Seq(sub(), sub())
	case 3:
		return expr.SeqIter(sub())
	case 4:
		return expr.Par(sub(), sub())
	case 5:
		return expr.Or(sub(), sub())
	case 6:
		return expr.Sync(sub(), sub())
	case 7:
		return expr.Mult(2, sub())
	case 8:
		return quantified(expr.AnyQ)
	case 9:
		// An unrestricted all-quantified body makes Φ empty; keep it
		// optional half the time so finality gets exercised.
		if r.next()%2 == 0 {
			return quantified(func(p string, y *expr.Expr) *expr.Expr { return expr.AllQ(p, expr.Option(y)) })
		}
		return quantified(expr.AllQ)
	case 10:
		return quantified(expr.SyncQ)
	default:
		return quantified(expr.ConQ)
	}
}

// bindingSigma is the action universe of FuzzBindingsVsOracle's words.
var bindingSigma = []expr.Action{
	expr.ConcreteAct("a"),
	expr.ConcreteAct("x", "v1"),
	expr.ConcreteAct("x", "v3"),
	expr.ConcreteAct("z", "v1", "v2"),
	expr.ConcreteAct("z", "v2", "v1"),
	expr.ConcreteAct("z", "v1", "v1"),
	expr.ConcreteAct("z", "v2", "v3"),
}

// decodeBindingCase maps arbitrary bytes to one differential test case.
func decodeBindingCase(data []byte) (*expr.Expr, Word) {
	r := &bindingReader{caseReader{data: data}}
	e := r.expr(0, nil)
	n := int(r.next()) % (fuzzMaxWord + 1)
	w := make(Word, 0, n)
	for i := 0; i < n; i++ {
		w = append(w, bindingSigma[int(r.next())%len(bindingSigma)])
	}
	return e, w
}

// bindingSeeds are FuzzBindingsVsOracle's structured seeds, one decoder
// decision per byte:
// all p: (any q: z($p,$q))*; all p: x($p) - any p: z($p,v1);
// (all p: z($p,v1)?) @ (syncq q: z(v2,$q)*); all p: any q: all p: z($q,$p)?.
var bindingSeeds = [][]byte{
	{9, 1, 0, 3, 8, 1, 2, 1, 0, 1, 1, 4, 3, 4, 3, 6},
	{9, 1, 0, 2, 0, 1, 1, 0, 8, 0, 2, 1, 1, 0, 0, 5, 1, 4, 3, 5, 2},
	{6, 9, 0, 0, 0, 2, 1, 0, 0, 0, 10, 1, 3, 2, 0, 1, 1, 0, 5, 3, 4, 6, 4, 5},
	{9, 1, 0, 8, 1, 9, 0, 0, 2, 1, 1, 1, 2, 4, 3, 5, 4, 6},
}

// FuzzBindingsVsOracle asserts that the engine, the plain transition
// function (Trans, no cache) and the oracle agree on the verdict of every
// prefix of the decoded word.
func FuzzBindingsVsOracle(f *testing.F) {
	for _, seed := range bindingSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, w := decodeBindingCase(data)
		en, err := state.NewEngine(e)
		if err != nil {
			t.Fatalf("engine rejects generated closed expression %s: %v", e, err)
		}
		o := New(e, len(w))
		s := state.Initial(e)
		for i := 0; i <= len(w); i++ {
			prefix := w[:i]
			if i > 0 {
				s = state.Trans(s, w[i-1])
			}
			got := int(en.Word(prefix))
			want := o.Verdict(prefix)
			if got != want {
				t.Fatalf("expr %s word %s: engine=%d oracle=%d", e, prefix, got, want)
			}
			if plain := plainVerdict(s); plain != want {
				t.Fatalf("expr %s word %s: plain=%d oracle=%d", e, prefix, plain, want)
			}
		}
	})
}

// plainVerdict classifies the state Trans reached, as Fig 9 does.
func plainVerdict(s state.State) int {
	switch {
	case s == nil:
		return 0
	case s.Final():
		return 2
	}
	return 1
}
