package state

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/paper"
	"repro/internal/parse"
)

// marshalCases cover every state node type: atoms, disjunction,
// conjunction, sequence, iterations, parallel composition, multipliers,
// synchronization and all four quantifiers.
var marshalCases = []struct {
	src  string
	word []string // driven prefix before each snapshot check
}{
	{"a", []string{"a"}},
	{"a - b - c", []string{"a", "b"}},
	{"(a - b)*", []string{"a", "b", "a"}},
	{"a | b - c", []string{"b"}},
	{"(a - b)# & (a | b)*", []string{"a", "a", "b"}},
	{"a || b || c", []string{"b", "a"}},
	{"(a - b?)#", []string{"a", "a", "b"}},
	{"mult(3, a - b)", []string{"a", "a", "b"}},
	{"(a - b) @ (c* - a)", []string{"c", "c", "a"}},
	{"a - (b | c)*", []string{"a", "b", "c"}},
	{"any p: lock(p) - unlock(p)", []string{"lock(x)"}},
	{"all p: (call(p) - perform(p))*", []string{"call(alice)", "call(bob)", "perform(alice)"}},
	{"syncq p: (x(p) - y(p))*", []string{"x(u)", "x(v)", "y(u)"}},
	{"conq p: (b? - x(p)?)?", []string{"b"}},
	{"all p: (call(p) - (any p: perform(p)))*", []string{"call(a1)", "perform(a1)", "call(a2)"}},
	{"(all p: (x(p))*) @ (all q: (y(q))*)", []string{"x(m)", "y(m)", "x(n)"}},
}

// probe actions exercised against original and restored engines.
func probes(e *expr.Expr, word []string) []expr.Action {
	var out []expr.Action
	seen := map[string]bool{}
	add := func(a expr.Action) {
		if !seen[a.Key()] {
			seen[a.Key()] = true
			out = append(out, a)
		}
	}
	for _, p := range e.Actions() {
		if p.Concrete() {
			add(p)
		}
		// Instantiate parameterized atoms with the values of the word plus
		// a fresh one.
		for _, v := range append(valuesOf(word), "fresh") {
			inst := p
			for name := range p.Params() {
				inst = inst.Subst(name, v)
			}
			if inst.Concrete() {
				add(inst)
			}
		}
	}
	return out
}

func valuesOf(word []string) []string {
	var out []string
	for _, w := range word {
		a, err := expr.ParseActionString(w)
		if err != nil {
			continue
		}
		out = append(out, a.Values()...)
	}
	return out
}

// TestSnapshotRoundTrip: marshal → restore reproduces the exact state at
// every prefix of each driven word, judged by state key, finality, step
// count and the permissibility of every probe action.
func TestSnapshotRoundTrip(t *testing.T) {
	for _, tc := range marshalCases {
		t.Run(tc.src, func(t *testing.T) {
			e := parse.MustParse(tc.src)
			en := MustEngine(e)
			check := func() {
				data, err := en.MarshalState()
				if err != nil {
					t.Fatalf("marshal after %d steps: %v", en.Steps(), err)
				}
				re, err := RestoreEngine(e, data)
				if err != nil {
					t.Fatalf("restore after %d steps: %v", en.Steps(), err)
				}
				if got, want := re.StateKey(), en.StateKey(); got != want {
					t.Fatalf("state key mismatch after %d steps:\n got  %s\n want %s", en.Steps(), got, want)
				}
				if re.Steps() != en.Steps() {
					t.Fatalf("steps: got %d want %d", re.Steps(), en.Steps())
				}
				if re.Final() != en.Final() {
					t.Fatalf("final: got %v want %v", re.Final(), en.Final())
				}
				for _, p := range probes(e, tc.word) {
					if got, want := re.Try(p), en.Try(p); got != want {
						t.Fatalf("try %s after %d steps: got %v want %v", p, en.Steps(), got, want)
					}
				}
			}
			check()
			for _, w := range tc.word {
				a, err := expr.ParseActionString(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := en.Step(a); err != nil {
					t.Fatalf("step %s: %v", w, err)
				}
				check()
			}
		})
	}
}

// TestSnapshotContinuation: a restored engine keeps accepting the rest of
// the word exactly like the original.
func TestSnapshotContinuation(t *testing.T) {
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	en := MustEngine(e)
	for _, w := range []string{"call(a)", "call(b)", "perform(a)"} {
		if err := en.Step(expr.ConcreteAct("call")); err == nil {
			t.Fatal("bare call should be rejected")
		}
		a, _ := expr.ParseActionString(w)
		if err := en.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	data, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	re, err := RestoreEngine(e, data)
	if err != nil {
		t.Fatal(err)
	}
	// b is still mid-round: call(b) must be rejected, perform(b) accepted.
	if re.Try(expr.ConcreteAct("call", "b")) {
		t.Error("call(b) should be impermissible after restore")
	}
	if err := re.Step(expr.ConcreteAct("perform", "b")); err != nil {
		t.Errorf("perform(b) after restore: %v", err)
	}
	if err := re.Step(expr.ConcreteAct("call", "b")); err != nil {
		t.Errorf("call(b) after perform(b): %v", err)
	}
}

// TestSnapshotWrongExpr: restoring against a different expression fails.
func TestSnapshotWrongExpr(t *testing.T) {
	e := parse.MustParse("a - b")
	en := MustEngine(e)
	data, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(parse.MustParse("b - a"), data); err == nil {
		t.Fatal("restore against a different expression should fail")
	}
}

// TestSnapshotGarbage: corrupt snapshots are rejected, not crashed on.
func TestSnapshotGarbage(t *testing.T) {
	e := parse.MustParse("a")
	for _, data := range []string{"", "{", `{"expr":"a","state":{"t":"nope"}}`, `{"expr":"a","state":null}`} {
		if _, err := RestoreEngine(e, []byte(data)); err == nil {
			t.Errorf("restore of %q should fail", data)
		}
	}
}

// openVisitRound is round k of the open-visits window on Fig 7: patient
// k is prepared, and the patient prepared n rounds earlier is called and
// performed, so n visits stay open.
func openVisitRound(t *testing.T, en *Engine, k, n int) {
	t.Helper()
	acts := []expr.Action{paper.PrepareAct(paper.Patient(k), paper.ExamSono)}
	if k >= n {
		p := paper.Patient(k - n)
		acts = append(acts, paper.CallAct(p, paper.ExamSono), paper.PerformAct(p, paper.ExamSono))
	}
	for _, a := range acts {
		if err := en.Step(a); err != nil {
			t.Fatalf("round %d: %s: %v", k, a, err)
		}
	}
}

// TestFig7OpenVisitsSnapshotBytes: with 512 visits open, the branches of
// the visits in one phase are one state, so the snapshot holds each
// value once and that state once (269,777 B when every branch was
// written substituted). The restored engine holds the same nodes as the
// live one: equal key and size, and equal keys for 100 more rounds.
func TestFig7OpenVisitsSnapshotBytes(t *testing.T) {
	const rounds, more = 300, 100
	for _, n := range []int{4, 64, 512} {
		en := MustEngine(paper.Fig7Coupled())
		for k := 0; k < n+rounds; k++ {
			openVisitRound(t, en, k, n)
		}
		data, err := en.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d open visits: snapshot %d B, state size %d", n, len(data), en.StateSize())
		if n < 512 {
			continue
		}
		if len(data) > 20_000 {
			t.Fatalf("snapshot of %d open visits is %d B, want at most 20,000", n, len(data))
		}
		back, err := RestoreEngine(paper.Fig7Coupled(), data)
		if err != nil {
			t.Fatal(err)
		}
		if back.StateKey() != en.StateKey() || back.StateSize() != en.StateSize() {
			t.Fatalf("restored engine: size %d, want %d; keys equal %t", back.StateSize(), en.StateSize(), back.StateKey() == en.StateKey())
		}
		for k := n + rounds; k < n+rounds+more; k++ {
			openVisitRound(t, en, k, n)
			openVisitRound(t, back, k, n)
			if back.StateKey() != en.StateKey() {
				t.Fatalf("round %d: restored engine's key differs from the live one's", k)
			}
		}
	}
}
