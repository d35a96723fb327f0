package state

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/parse"
)

func ca(name string, vals ...string) expr.Action { return expr.ConcreteAct(name, vals...) }

func mustStep(t *testing.T, en *Engine, a expr.Action) {
	t.Helper()
	if err := en.Step(a); err != nil {
		t.Fatalf("step %s: %v", a, err)
	}
}

func mustReject(t *testing.T, en *Engine, a expr.Action) {
	t.Helper()
	if en.Try(a) {
		t.Fatalf("action %s should be rejected", a)
	}
}

func TestAtomStateLifecycle(t *testing.T) {
	en := MustEngine(parse.MustParse("a"))
	if en.Final() {
		t.Error("initial atom state is not final")
	}
	mustReject(t, en, ca("b"))
	mustStep(t, en, ca("a"))
	if !en.Final() {
		t.Error("after a: final")
	}
	mustReject(t, en, ca("a")) // atoms fire once
}

func TestEmptyState(t *testing.T) {
	en := MustEngine(parse.MustParse("()"))
	if !en.Final() {
		t.Error("ε is final")
	}
	mustReject(t, en, ca("a"))
}

func TestOptionState(t *testing.T) {
	en := MustEngine(parse.MustParse("a?"))
	if !en.Final() {
		t.Error("option is final immediately")
	}
	mustStep(t, en, ca("a"))
	if !en.Final() {
		t.Error("and after taking the option")
	}
}

func TestSeqIterBoundaryAmbiguity(t *testing.T) {
	// (a - a)*: after two a's, the walker may be at the boundary (final)
	// or mid-second-iteration — both tracked simultaneously.
	en := MustEngine(parse.MustParse("(a - a)*"))
	mustStep(t, en, ca("a"))
	if en.Final() {
		t.Error("odd number of a's cannot be final")
	}
	mustStep(t, en, ca("a"))
	if !en.Final() {
		t.Error("even number of a's is final")
	}
	mustStep(t, en, ca("a"))
	if en.Final() {
		t.Error("back to odd")
	}
}

func TestMultCountsInstances(t *testing.T) {
	en := MustEngine(parse.MustParse("mult(3, a - b)"))
	for i := 0; i < 3; i++ {
		mustStep(t, en, ca("a"))
	}
	mustReject(t, en, ca("a")) // only 3 instances
	for i := 0; i < 3; i++ {
		mustStep(t, en, ca("b"))
	}
	if !en.Final() {
		t.Error("all instances complete")
	}
}

func TestParIterUnbounded(t *testing.T) {
	en := MustEngine(parse.MustParse("(a - b)#"))
	for i := 0; i < 10; i++ {
		mustStep(t, en, ca("a"))
	}
	for i := 0; i < 10; i++ {
		mustStep(t, en, ca("b"))
	}
	if !en.Final() {
		t.Error("ten interleaved instances complete")
	}
	mustReject(t, en, ca("b")) // no open instance left
	mustStep(t, en, ca("a"))   // but new ones can always start
}

func TestSyncOpenWorldRouting(t *testing.T) {
	// c is invisible to the left operand and flows through; the shared a
	// must satisfy both.
	en := MustEngine(parse.MustParse("(a - b) @ (c* - a)"))
	mustStep(t, en, ca("c"))
	mustStep(t, en, ca("c"))
	mustStep(t, en, ca("a"))
	mustReject(t, en, ca("c")) // right operand finished its c*
	mustStep(t, en, ca("b"))
	if !en.Final() {
		t.Error("both operands complete")
	}
}

func TestSyncRejectsForeignAction(t *testing.T) {
	en := MustEngine(parse.MustParse("a @ b"))
	mustReject(t, en, ca("zzz")) // not in α(x)
}

func TestAnyQCommitsLazily(t *testing.T) {
	// any p: x(p) - y(p): the choice of p is made by the first action.
	en := MustEngine(parse.MustParse("any p: x(p) - y(p)"))
	if !en.Try(ca("x", "v1")) || !en.Try(ca("x", "v2")) {
		t.Fatal("all values open initially")
	}
	mustStep(t, en, ca("x", "v1"))
	mustReject(t, en, ca("y", "v2")) // committed to v1
	mustStep(t, en, ca("y", "v1"))
	if !en.Final() {
		t.Error("complete")
	}
}

func TestAllQAnonymousBranchBinding(t *testing.T) {
	// all p: (b - x(p))?: the b belongs to an anonymous branch that is
	// bound to a value only when x arrives.
	en := MustEngine(parse.MustParse("all p: (b - x(p))?"))
	mustStep(t, en, ca("b"))
	mustStep(t, en, ca("b"))         // second anonymous branch
	mustStep(t, en, ca("x", "v1"))   // binds one of them
	mustStep(t, en, ca("x", "v2"))   // binds the other
	mustReject(t, en, ca("x", "v1")) // v1 already bound and finished
	mustReject(t, en, ca("x", "v3")) // no open anonymous branch left
	if !en.Final() {
		t.Error("two completed branches + untouched rest = complete")
	}
}

func TestAllQNonNullableNeverFinal(t *testing.T) {
	// Per Table 8 the parallel quantifier of a non-nullable body has an
	// empty complete-word set: untouched branches cannot contribute ε.
	en := MustEngine(parse.MustParse("all p: x(p)"))
	if en.Final() {
		t.Error("empty word must not be final")
	}
	mustStep(t, en, ca("x", "v1"))
	if en.Final() {
		t.Error("no word is ever final")
	}
	if !en.Valid() {
		t.Error("but partial words exist")
	}
}

func TestSyncQProjection(t *testing.T) {
	en := MustEngine(parse.MustParse("syncq p: (x(p) - y(p))*"))
	mustStep(t, en, ca("x", "v1"))
	mustStep(t, en, ca("x", "v2"))
	mustReject(t, en, ca("x", "v1")) // v1's projection expects y first
	mustStep(t, en, ca("y", "v1"))
	mustStep(t, en, ca("y", "v2"))
	if !en.Final() {
		t.Error("both projections complete")
	}
}

func TestConQSharedAlphabet(t *testing.T) {
	// conq p: (b? - x(p)?)? : every branch must accept every action; b is
	// shared, x(v) kills all other branches' words... except every branch
	// may stop anywhere (options), so x(v) is acceptable as long as other
	// branches treat it as... they cannot: x(v) is not in branch w's
	// language at all for w ≠ v.
	en := MustEngine(parse.MustParse("conq p: (b? - x(p)?)?"))
	mustStep(t, en, ca("b"))
	mustReject(t, en, ca("x", "v1"))
	if !en.Final() {
		t.Error("b alone is complete in every branch")
	}
}

func TestEngineResetAndSteps(t *testing.T) {
	en := MustEngine(parse.MustParse("a - b"))
	mustStep(t, en, ca("a"))
	if en.Steps() != 1 {
		t.Errorf("steps: %d", en.Steps())
	}
	en.Reset()
	if en.Steps() != 0 || en.Final() {
		t.Error("reset should restore the initial state")
	}
	mustStep(t, en, ca("a"))
}

func TestEngineRejectsNonConcrete(t *testing.T) {
	en := MustEngine(parse.MustParse("a"))
	if err := en.Step(expr.Act("a", expr.Prm("p"))); err == nil {
		t.Error("non-concrete action must be rejected")
	}
}

// TestCommitRefusesStaleSuccessor: a successor is only installable on the
// state it was computed from; a refused commit changes nothing.
func TestCommitRefusesStaleSuccessor(t *testing.T) {
	en := MustEngine(parse.MustParse("(a | b) - c"))
	viaA, viaB := en.Advance(ca("a")), en.Advance(ca("b"))
	if err := en.Commit(en.Advance(ca("c"))); !errors.Is(err, ErrRejected) {
		t.Fatalf("committing an impermissible advance: %v, want ErrRejected", err)
	}
	if err := en.Commit(viaA); err != nil {
		t.Fatal(err)
	}
	key := en.StateKey()
	for _, stale := range []Successor{viaA, viaB} {
		if err := en.Commit(stale); !errors.Is(err, ErrStaleSuccessor) {
			t.Fatalf("stale commit: %v, want ErrStaleSuccessor", err)
		}
	}
	if en.Steps() != 1 || en.StateKey() != key {
		t.Fatalf("refused commits moved the engine: steps %d, state %s", en.Steps(), en.StateKey())
	}
	mustStep(t, en, ca("c"))
}

func TestNewEngineErrors(t *testing.T) {
	if _, err := NewEngine(nil); err == nil {
		t.Error("nil expression")
	}
	if _, err := NewEngine(expr.AtomNamed("x", expr.Prm("p"))); err == nil {
		t.Error("open expression")
	}
}

func TestVerdictString(t *testing.T) {
	if Illegal.String() != "illegal" || Partial.String() != "partial" || Complete.String() != "complete" {
		t.Error("verdict names")
	}
}

// --- properties ---------------------------------------------------------

// TestPropertyDeterminism: the state model is deterministic — replaying
// a word always yields the identical canonical state (the paper's
// explicit design goal vs. Petri nets and process algebras).
func TestPropertyDeterminism(t *testing.T) {
	sigma := []expr.Action{ca("a"), ca("b"), ca("x", "v1"), ca("x", "v2")}
	f := func(seed int64) bool {
		e := genFromSeed(seed)
		s1, s2 := Initial(e), Initial(e)
		k := uint64(seed)
		for i := 0; i < 6; i++ {
			k = k*2862933555777941757 + 3037000493
			a := sigma[int(k>>33)%len(sigma)]
			s1, s2 = Trans(s1, a), Trans(s2, a)
			if (s1 == nil) != (s2 == nil) {
				return false
			}
			if s1 == nil {
				return true
			}
			if s1.Key() != s2.Key() {
				t.Logf("divergence on %s after %s", e, a)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCompressSoundness: a final+inert state must behave exactly
// like ε — final, and refusing every action.
func TestPropertyCompressSoundness(t *testing.T) {
	sigma := []expr.Action{ca("a"), ca("b"), ca("x", "v1")}
	f := func(seed int64) bool {
		e := genFromSeed(seed)
		s := Initial(e)
		k := uint64(seed)
		for i := 0; i < 5 && s != nil; i++ {
			k = k*2862933555777941757 + 3037000493
			s = Trans(s, sigma[int(k>>33)%len(sigma)])
		}
		if s == nil {
			return true
		}
		if s.Final() && s.inert() {
			for _, a := range sigma {
				if s.trans(a, sharing{}) != nil {
					t.Logf("inert state of %s accepted %s", e, a)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyInitialValid: σ(x) is always a valid state (〈〉 ∈ Ψ(x)).
func TestPropertyInitialValid(t *testing.T) {
	f := func(seed int64) bool {
		return Initial(genFromSeed(seed)) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// genFromSeed builds a deterministic pseudo-random closed expression.
func genFromSeed(seed int64) *expr.Expr {
	s := uint64(seed)
	next := func(n int) int {
		s = s*6364136223846793005 + 1442695040888963407
		return int((s >> 33) % uint64(n))
	}
	var gen func(d int, params []string) *expr.Expr
	gen = func(d int, params []string) *expr.Expr {
		if d == 0 || next(4) == 0 {
			switch next(3) {
			case 0:
				return expr.AtomNamed([]string{"a", "b"}[next(2)])
			case 1:
				return expr.AtomNamed("x", expr.Val("v1"))
			default:
				if len(params) == 0 {
					return expr.AtomNamed("b")
				}
				return expr.AtomNamed("x", expr.Prm(params[next(len(params))]))
			}
		}
		switch next(12) {
		case 0:
			return expr.Option(gen(d-1, params))
		case 1:
			return expr.Seq(gen(d-1, params), gen(d-1, params))
		case 2:
			return expr.SeqIter(gen(d-1, params))
		case 3:
			return expr.Par(gen(d-1, params), gen(d-1, params))
		case 4:
			return expr.ParIter(gen(d-1, params))
		case 5:
			return expr.Or(gen(d-1, params), gen(d-1, params))
		case 6:
			return expr.And(gen(d-1, params), gen(d-1, params))
		case 7:
			return expr.Sync(gen(d-1, params), gen(d-1, params))
		case 8:
			return expr.Mult(2, gen(d-1, params))
		case 9:
			p := "p" + string(rune('0'+len(params)))
			return expr.AnyQ(p, gen(d-1, append(params, p)))
		case 10:
			p := "p" + string(rune('0'+len(params)))
			return expr.AllQ(p, expr.Option(gen(d-1, append(params, p))))
		default:
			p := "p" + string(rune('0'+len(params)))
			return expr.SyncQ(p, gen(d-1, append(params, p)))
		}
	}
	return gen(3, nil)
}
