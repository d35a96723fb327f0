package state

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/expr"
)

// nestGen generates expressions whose quantifiers nest and may shadow
// one another: atoms take up to two arguments, each a value or a
// parameter in scope, and every quantifier binds p or q.
type nestGen struct {
	rnd    *rand.Rand
	params []string
}

func (g *nestGen) arg() expr.Arg {
	if len(g.params) > 0 && g.rnd.Intn(2) == 0 {
		return expr.Prm(g.params[g.rnd.Intn(len(g.params))])
	}
	return expr.Val([]string{"v1", "v2"}[g.rnd.Intn(2)])
}

func (g *nestGen) atom() *expr.Expr {
	if g.rnd.Intn(2) == 0 {
		return expr.AtomNamed("x", g.arg())
	}
	return expr.AtomNamed("z", g.arg(), g.arg())
}

func (g *nestGen) quant(depth int, mk func(string, *expr.Expr) *expr.Expr) *expr.Expr {
	p := []string{"p", "q"}[g.rnd.Intn(2)]
	g.params = append(g.params, p)
	body := g.gen(depth - 1)
	g.params = g.params[:len(g.params)-1]
	return mk(p, body)
}

func optionalAllQ(p string, body *expr.Expr) *expr.Expr { return expr.AllQ(p, expr.Option(body)) }

func (g *nestGen) gen(depth int) *expr.Expr {
	if depth <= 0 {
		return g.atom()
	}
	switch g.rnd.Intn(11) {
	case 0:
		return g.atom()
	case 1:
		return expr.Option(g.gen(depth - 1))
	case 2:
		return expr.Seq(g.gen(depth-1), g.gen(depth-1))
	case 3:
		return expr.SeqIter(g.gen(depth - 1))
	case 4:
		return expr.Par(g.gen(depth-1), g.gen(depth-1))
	case 5:
		return expr.Or(g.gen(depth-1), g.gen(depth-1))
	case 6:
		return expr.Sync(g.gen(depth-1), g.gen(depth-1))
	case 7:
		return g.quant(depth, expr.AnyQ)
	case 8:
		return g.quant(depth, expr.SyncQ)
	case 9:
		return g.quant(depth, expr.ConQ)
	}
	return g.quant(depth, optionalAllQ)
}

// TestNestedQuantifierKeysUnchanged pins the digest of StateKey() after
// every step of random words on random expressions with nested and
// shadowing quantifiers, where a quantifier inside another's branch is
// walked under the outer binding, among them generic and anonymous
// states built with the parameter free and walked again for a fresh
// value. The digest was recorded with an engine that substituted every
// branch's body, so binding by walking must build states with the same
// keys.
func TestNestedQuantifierKeysUnchanged(t *testing.T) {
	const want = "eec4292e110cedab77e547af428fcf582f0ceff4443850489b970172b4465991"
	sigma := []expr.Action{
		ca("x", "v1"), ca("x", "v2"), ca("x", "v3"), ca("z", "v1", "v2"), ca("z", "v2", "v1"),
		ca("z", "v1", "v1"), ca("z", "v2", "v2"), ca("z", "v3", "v1"), ca("z", "v1", "v3"),
	}
	rnd := rand.New(rand.NewSource(7))
	h := sha256.New()
	for i := 0; i < 600; i++ {
		g := &nestGen{rnd: rnd}
		e := g.quant(4, []func(string, *expr.Expr) *expr.Expr{expr.AnyQ, optionalAllQ, expr.SyncQ}[rnd.Intn(3)])
		for w := 0; w < 6; w++ {
			en := MustEngine(e)
			for s := 0; s < 8; s++ {
				if en.Step(sigma[rnd.Intn(len(sigma))]) == nil {
					h.Write([]byte(en.StateKey()))
				}
				h.Write([]byte{0})
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("state key digest %s, want %s", got, want)
	}
}
