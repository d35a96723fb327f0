package state

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/parse"
)

// fuzzActions derives a candidate concrete-action set for an expression:
// every atom instantiated (via the lawSigma generator of laws_test.go)
// with a small value universe plus the values the expression itself
// mentions.
func fuzzActions(e *expr.Expr) []expr.Action {
	vals := []string{"v1", "v2"}
	seenV := map[string]bool{"v1": true, "v2": true}
	for _, at := range e.Actions() {
		for _, v := range at.Values() {
			if !seenV[v] {
				seenV[v] = true
				vals = append(vals, v)
			}
		}
	}
	return lawSigma(vals, e)
}

// assertRoundTrip checks the full snapshot contract at the engine's
// current state: marshal → unmarshal → marshal is byte-identical, and
// the restored engine is transition-equivalent (same key, same finality,
// same permissibility for every candidate action).
func assertRoundTrip(t *testing.T, en *Engine, cands []expr.Action) {
	t.Helper()
	data, err := en.MarshalState()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	re, err := RestoreEngine(en.Expr(), data)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	data2, err := re.MarshalState()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("marshal → unmarshal → marshal not byte-identical:\n 1st %s\n 2nd %s", data, data2)
	}
	if re.StateKey() != en.StateKey() {
		t.Fatalf("state key diverges:\n got  %s\n want %s", re.StateKey(), en.StateKey())
	}
	if re.Final() != en.Final() {
		t.Fatalf("finality diverges: got %v want %v", re.Final(), en.Final())
	}
	for _, a := range cands {
		if got, want := re.Try(a), en.Try(a); got != want {
			t.Fatalf("try %s diverges: restored=%v original=%v", a, got, want)
		}
	}
}

// snapshotSeeds are FuzzSnapshotRoundTrip's seed expressions, each
// seeded with every word of snapshotSeedWords.
func snapshotSeeds() []string {
	return append([]string{
		"all p0: ((x($p0) || a) @ mult(2, x(v2)))?",
		"any p0: ((x($p0) || a) @ mult(2, x(v2)))",
		"all p: (call(p) - perform(p))*",
		"(all p: (x(p))*) @ (all q: (y(q))*)",
		"syncq p: (x(p) - y(p))*",
		"conq p: (b? - x(p)?)?",
		"(a - b)# & (a | b)*",
		"mult(3, a - b) || (any p: lock(p) - unlock(p))",
	}, reboundSrcs...)
}

var snapshotSeedWords = [][]byte{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 0, 1, 1, 2, 2}, {3, 1, 4, 1, 5, 9, 2, 6}}

// FuzzSnapshotRoundTrip drives a random word through a parsed expression
// and asserts the DAG snapshot format round-trips exactly at every
// reached state. The seed corpus covers the exclusion-carrying
// quantifier states introduced by the PR-2 binding-soundness fix
// (anonymous allQ branches and anyQ generic branches with excluded
// bindings), every node type of the format, and the rebound parameters
// of reboundSrcs, whose branch states are written with $p free.
func FuzzSnapshotRoundTrip(f *testing.F) {
	for _, src := range snapshotSeeds() {
		for _, word := range snapshotSeedWords {
			f.Add(src, word)
		}
	}
	f.Fuzz(func(t *testing.T, src string, word []byte) {
		e, err := parse.Parse(src)
		if err != nil || !e.Closed() || e.Size() > 40 {
			return
		}
		en, err := NewEngine(e)
		if err != nil {
			return
		}
		cands := fuzzActions(e)
		if len(cands) == 0 {
			return
		}
		assertRoundTrip(t, en, cands)
		steps := 0
		for _, b := range word {
			if steps >= 10 {
				break
			}
			a := cands[int(b)%len(cands)]
			if en.Step(a) != nil {
				continue
			}
			steps++
			assertRoundTrip(t, en, cands)
		}
	})
}

// TestSnapshotExclusionRoundTrip pins the exclusion-carrying states the
// fuzzer's seed corpus aims at: an anonymous allQ branch that consumed
// x(v2) with p0 free records v2 as excluded, and the snapshot must carry
// the exclusion — dropping it would let the restored engine over-accept
// exactly like the pre-PR-2 bug.
func TestSnapshotExclusionRoundTrip(t *testing.T) {
	e := parse.MustParse("all p0: ((x($p0) || a) @ mult(2, x(v2)))?")
	en := MustEngine(e)
	cands := fuzzActions(e)
	for _, w := range []string{"x(v2)", "x(v2)"} {
		a, err := expr.ParseActionString(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := en.Step(a); err != nil {
			t.Fatalf("step %s: %v", w, err)
		}
		assertRoundTrip(t, en, cands)
	}
	data, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"x":[["v2"]`) {
		t.Fatalf("snapshot lost the excluded-binding set: %s", data)
	}
}

// TestSnapshotDAGSharing: repeated structure is emitted once and
// back-referenced, and an engine snapshots identically to the plain
// recursion's state (the cache must be invisible in the format).
func TestSnapshotDAGSharing(t *testing.T) {
	e := parse.MustParse("mult(3, a - b) || mult(3, a - b)")
	plain := newPlainRef(e)
	memo := MustEngine(e)
	for _, w := range []string{"a", "a"} {
		a, _ := expr.ParseActionString(w)
		if !plain.step(a) {
			t.Fatalf("plain step %s rejected", w)
		}
		if err := memo.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	d1, err := json.Marshal(engineSnap{V: snapFormatVersion, Expr: e.String(),
		Steps: plain.steps, State: newEncoder().state(plain.cur)})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := memo.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatalf("engine and plain state snapshot differently:\n plain %s\n memo  %s", d1, d2)
	}
	if !bytes.Contains(d1, []byte(`"r":`)) {
		t.Fatalf("expected back-references in the DAG snapshot: %s", d1)
	}
	assertRoundTrip(t, memo, fuzzActions(e))
}

// Legacy (version-0, tree-encoded) snapshots, captured verbatim from the
// pre-DAG encoder. They must keep loading: deployed managers checkpoint
// these to disk and a restart after the upgrade recovers from them.
var legacySnapshots = []struct {
	src   string
	data  string
	steps int
}{
	{
		"all p: (call(p) - perform(p))*",
		`{"expr":"all p: (call($p) - perform($p))*","steps":3,"state":{"t":"all","e":"all p: (call($p) - perform($p))*","qa":[{"n":[{"v":"bob","s":{"t":"iter","e":"call(bob) - perform(bob)","k":[{"t":"seq","e":"call(bob) - perform(bob)","k":[{"t":"eps"},{"t":"atom","act":{"n":"perform","a":[{"n":"bob"}]}}],"i":[0,1]}]}}]}]}}`,
		3,
	},
	{
		"all p0: ((x($p0) || a) @ mult(2, x(v2)))?",
		`{"expr":"all p0: (x($p0) || a @ mult(2, x(v2)))?","steps":2,"state":{"t":"all","e":"all p0: (x($p0) || a @ mult(2, x(v2)))?","qa":[{"a":[{"t":"or","k":[{"t":"sync","es":["x($p0) || a","mult(2, x(v2))"],"k":[{"t":"par","aa":[[{"t":"atom","act":{"n":"x","a":[{"p":true,"n":"p0"}]}},{"t":"atom","act":{"n":"a"}}]]},{"t":"eps"}]}]}],"x":[["v2"]]},{"a":[{"t":"or","k":[{"t":"sync","es":["x($p0) || a","mult(2, x(v2))"],"k":[{"t":"par","aa":[[{"t":"atom","act":{"n":"x","a":[{"p":true,"n":"p0"}]}},{"t":"atom","act":{"n":"a"}}]]},{"t":"mult","aa":[[{"t":"atom","act":{"n":"x","a":[{"n":"v2"}]}},{"t":"eps"}]]}]}]},{"t":"or","k":[{"t":"sync","es":["x($p0) || a","mult(2, x(v2))"],"k":[{"t":"par","aa":[[{"t":"atom","act":{"n":"x","a":[{"p":true,"n":"p0"}]}},{"t":"atom","act":{"n":"a"}}]]},{"t":"mult","aa":[[{"t":"atom","act":{"n":"x","a":[{"n":"v2"}]}},{"t":"eps"}]]}]}]}],"x":[["v2"],["v2"]]},{"n":[{"v":"v2","s":{"t":"or","k":[{"t":"sync","es":["x(v2) || a","mult(2, x(v2))"],"k":[{"t":"par","aa":[[{"t":"eps"},{"t":"atom","act":{"n":"a"}}]]},{"t":"mult","aa":[[{"t":"atom","act":{"n":"x","a":[{"n":"v2"}]}},{"t":"eps"}]]}]}]}}],"a":[{"t":"or","k":[{"t":"sync","es":["x($p0) || a","mult(2, x(v2))"],"k":[{"t":"par","aa":[[{"t":"atom","act":{"n":"x","a":[{"p":true,"n":"p0"}]}},{"t":"atom","act":{"n":"a"}}]]},{"t":"mult","aa":[[{"t":"atom","act":{"n":"x","a":[{"n":"v2"}]}},{"t":"eps"}]]}]}]}],"x":[["v2"]]}]}}`,
		2,
	},
	{
		"(a - b)# & (a | b)*",
		`{"expr":"(a - b)# & (a | b)*","steps":3,"state":{"t":"and","k":[{"t":"piter","e":"a - b","aa":[[{"t":"seq","e":"a - b","k":[{"t":"eps"},{"t":"atom","act":{"n":"b"}}],"i":[0,1]}]]},{"t":"iter","done":true,"e":"a | b","k":[{"t":"or","k":[{"t":"atom","act":{"n":"a"}},{"t":"atom","act":{"n":"b"}}]}]}]}}`,
		3,
	},
}

// TestSnapshotLegacyTreeFormat: version-0 snapshots restore, behave, and
// migrate — re-marshaling a restored legacy engine produces the current
// DAG format, which round-trips to the same state.
func TestSnapshotLegacyTreeFormat(t *testing.T) {
	for _, tc := range legacySnapshots {
		t.Run(tc.src, func(t *testing.T) {
			e := parse.MustParse(tc.src)
			en, err := RestoreEngine(e, []byte(tc.data))
			if err != nil {
				t.Fatalf("legacy restore: %v", err)
			}
			if en.Steps() != tc.steps {
				t.Fatalf("steps: got %d want %d", en.Steps(), tc.steps)
			}
			// Migration: the restored engine re-marshals in the DAG format
			// and keeps round-tripping.
			assertRoundTrip(t, en, fuzzActions(e))
			data2, err := en.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data2, []byte(`"v":4`)) {
				t.Fatalf("re-marshal should be version 4: %s", data2)
			}
		})
	}
}

// TestSnapshotUnsupportedVersion: snapshots from a future format are
// rejected with a version error instead of being misread.
func TestSnapshotUnsupportedVersion(t *testing.T) {
	e := parse.MustParse("a")
	data := []byte(`{"v":9,"expr":"a","steps":0,"state":{"t":"atom","act":{"n":"a"}}}`)
	if _, err := RestoreEngine(e, data); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}
