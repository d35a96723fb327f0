package state

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/paper"
	"repro/internal/parse"
)

// driveDeltaChain steps an engine through a growing all-quantifier
// workload, checkpointing every "every" steps (full base first, deltas
// after), and returns the pieces plus the engine.
func driveDeltaChain(t *testing.T, steps, every int) (*expr.Expr, *Engine, [][]byte) {
	t.Helper()
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	en := MustEngine(e)
	dm := NewDeltaMarshaller()
	var chain [][]byte
	for i := 0; i < steps; i++ {
		a, err := expr.ParseActionString(fmt.Sprintf("call(p%d)", i))
		if err != nil {
			t.Fatal(err)
		}
		if err := en.Step(a); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if (i+1)%every != 0 {
			continue
		}
		var data []byte
		if len(chain) == 0 {
			data, err = dm.MarshalBase(en)
		} else {
			data, err = dm.MarshalDelta(en)
		}
		if err != nil {
			t.Fatalf("marshal piece %d: %v", len(chain), err)
		}
		chain = append(chain, data)
	}
	return e, en, chain
}

func restoreChain(t *testing.T, e *expr.Expr, chain [][]byte) *DeltaRestorer {
	t.Helper()
	dr, err := NewDeltaRestorer(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range chain {
		if err := dr.Load(data); err != nil {
			t.Fatalf("load piece %d: %v", i, err)
		}
	}
	return dr
}

// TestDeltaChainRoundTrip: restoring base+deltas reproduces the exact
// engine state (key, steps, finality) at every checkpoint, every piece
// and the full snapshot stay within the bytes the substituted format
// (version 3) needed, and the last delta emits in full exactly the nodes
// no earlier piece emitted.
func TestDeltaChainRoundTrip(t *testing.T) {
	e, en, chain := driveDeltaChain(t, 24, 4)
	if len(chain) < 3 {
		t.Fatalf("want >= 3 pieces, got %d", len(chain))
	}
	dr := restoreChain(t, e, chain)
	re, err := dr.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re.StateKey(), en.StateKey(); got != want {
		t.Fatalf("state key mismatch:\n got  %s\n want %s", got, want)
	}
	if re.Steps() != en.Steps() {
		t.Fatalf("steps: got %d want %d", re.Steps(), en.Steps())
	}

	// The bytes of the same chain and full snapshot in format version 3,
	// which wrote every branch substituted.
	v3Pieces, v3Full := []int{857, 963, 1072, 1182, 1282, 1382}, 4542
	if len(chain) != len(v3Pieces) {
		t.Fatalf("%d pieces, want %d", len(chain), len(v3Pieces))
	}
	for i, piece := range chain {
		if len(piece) > v3Pieces[i] {
			t.Fatalf("piece %d is %d B, more than version 3's %d B", i, len(piece), v3Pieces[i])
		}
	}
	full, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) > v3Full {
		t.Fatalf("full snapshot is %d B, more than version 3's %d B", len(full), v3Full)
	}
	t.Logf("pieces %d..%d B, full snapshot %d B", len(chain[0]), len(chain[len(chain)-1]), len(full))

	// The last delta's full nodes are the state's nodes no earlier piece
	// emitted, each once: the ordinals it assigned are exactly those keys.
	prev := restoreChain(t, e, chain[:len(chain)-1]).d.byOrd
	earlier := make(map[string]bool)
	for _, s := range prev {
		earlier[s.Key()] = true
	}
	enc := newEncoder()
	enc.state(en.cur)
	want := make(map[string]bool)
	for _, s := range enc.seen.states() {
		if k := s.Key(); !earlier[k] {
			want[k] = true
		}
	}
	emitted := dr.d.byOrd[len(prev):]
	got := make(map[string]bool)
	for _, s := range emitted {
		if !want[s.Key()] || got[s.Key()] {
			t.Fatalf("last delta emits %s, which an earlier piece emitted or it repeats", s.Key())
		}
		got[s.Key()] = true
	}
	if len(got) != len(want) {
		t.Fatalf("last delta emits %d full nodes, want the %d no earlier piece emitted", len(got), len(want))
	}
}

// states returns every state of the table.
func (t idTable[V]) states() []State {
	var out []State
	for _, es := range t {
		for _, e := range es {
			out = append(out, e.st)
		}
	}
	return out
}

// TestDeltaChainIntermediatePieces: every chain prefix restores the
// state at that checkpoint, verified against standalone snapshots taken
// at the same instants.
func TestDeltaChainIntermediatePieces(t *testing.T) {
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	en := MustEngine(e)
	dm := NewDeltaMarshaller()
	var chain [][]byte
	var wantKeys []string
	for i := 0; i < 12; i++ {
		a, _ := expr.ParseActionString(fmt.Sprintf("call(p%d)", i))
		if err := en.Step(a); err != nil {
			t.Fatal(err)
		}
		var data []byte
		var err error
		if len(chain) == 0 {
			data, err = dm.MarshalBase(en)
		} else {
			data, err = dm.MarshalDelta(en)
		}
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, data)
		wantKeys = append(wantKeys, en.StateKey())
	}
	dr, err := NewDeltaRestorer(e)
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range chain {
		if err := dr.Load(data); err != nil {
			t.Fatalf("load piece %d: %v", i, err)
		}
		re, err := dr.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if re.StateKey() != wantKeys[i] {
			t.Fatalf("piece %d: state key mismatch", i)
		}
	}
}

// TestDeltaRestorerContinuation: after a restore, Marshaller() extends
// the recovered chain — the new delta references nodes persisted before
// the restart, and the longer chain still restores exactly.
func TestDeltaRestorerContinuation(t *testing.T) {
	e, en, chain := driveDeltaChain(t, 16, 4)
	dr := restoreChain(t, e, chain)
	re, err := dr.Engine()
	if err != nil {
		t.Fatal(err)
	}
	dm := dr.Marshaller()
	// "The restart": drive the restored engine further, checkpoint with
	// the continuation marshaller.
	for i := 0; i < 4; i++ {
		a, _ := expr.ParseActionString(fmt.Sprintf("call(q%d)", i))
		if err := re.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	delta, err := dm.MarshalDelta(re)
	if err != nil {
		t.Fatal(err)
	}
	chain = append(chain, delta)
	// Mirror the walk on the original engine for the reference key.
	for i := 0; i < 4; i++ {
		a, _ := expr.ParseActionString(fmt.Sprintf("call(q%d)", i))
		if err := en.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	dr2 := restoreChain(t, e, chain)
	re2, err := dr2.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re2.StateKey(), en.StateKey(); got != want {
		t.Fatalf("state key mismatch after continuation:\n got  %s\n want %s", got, want)
	}
}

// TestDeltaChainValidation: broken chains fail loudly.
func TestDeltaChainValidation(t *testing.T) {
	e, _, chain := driveDeltaChain(t, 16, 4)

	newDR := func() *DeltaRestorer {
		dr, err := NewDeltaRestorer(e)
		if err != nil {
			t.Fatal(err)
		}
		return dr
	}

	// Delta as first piece: no base to reference into.
	if err := newDR().Load(chain[1]); err == nil || !strings.Contains(err.Error(), "delta chain broken") {
		t.Fatalf("delta-first load: got %v, want chain-broken error", err)
	}
	// Skipped piece: indices no longer sequential.
	dr := newDR()
	if err := dr.Load(chain[0]); err != nil {
		t.Fatal(err)
	}
	if err := dr.Load(chain[2]); err == nil || !strings.Contains(err.Error(), "delta chain broken") {
		t.Fatalf("skip-piece load: got %v, want chain-broken error", err)
	}
	// Wrong expression.
	other, err := NewDeltaRestorer(parse.MustParse("a - b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Load(chain[0]); err == nil || !strings.Contains(err.Error(), "snapshot is for") {
		t.Fatalf("wrong-expr load: got %v, want expr mismatch error", err)
	}
	// MarshalDelta before any base.
	if _, err := NewDeltaMarshaller().MarshalDelta(MustEngine(e)); err == nil {
		t.Fatal("MarshalDelta without base should fail")
	}
	// Engine() before any load.
	if _, err := newDR().Engine(); err == nil {
		t.Fatal("Engine() before load should fail")
	}
}

// TestDeltaStandaloneBase: a plain MarshalState snapshot, which is a
// chain base, seeds a chain, and a continuation delta on top restores
// exactly.
func TestDeltaStandaloneBase(t *testing.T) {
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	en := MustEngine(e)
	for i := 0; i < 6; i++ {
		a, _ := expr.ParseActionString(fmt.Sprintf("call(p%d)", i))
		if err := en.Step(a); err != nil {
			t.Fatal(err)
		}
	}
	base, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	dr, err := NewDeltaRestorer(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := dr.Load(base); err != nil {
		t.Fatal(err)
	}
	re, err := dr.Engine()
	if err != nil {
		t.Fatal(err)
	}
	dm := dr.Marshaller()
	a, _ := expr.ParseActionString("perform(p3)")
	if err := re.Step(a); err != nil {
		t.Fatal(err)
	}
	if err := en.Step(a); err != nil {
		t.Fatal(err)
	}
	delta, err := dm.MarshalDelta(re)
	if err != nil {
		t.Fatal(err)
	}
	dr2, err := NewDeltaRestorer(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{base, delta} {
		if err := dr2.Load(p); err != nil {
			t.Fatal(err)
		}
	}
	re2, err := dr2.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := re2.StateKey(), en.StateKey(); got != want {
		t.Fatalf("state key mismatch:\n got  %s\n want %s", got, want)
	}
}

// TestPreV4ChainNotExtended: a chain written before format version 4
// loads to its end, but Marshaller does not extend it, so the next
// checkpoint is a full base; a chain's later pieces must carry its base's
// version, and a version-2 standalone base takes version-3 deltas.
func TestPreV4ChainNotExtended(t *testing.T) {
	e := paper.Fig7Coupled()
	load := func(pieces ...[]byte) (*DeltaRestorer, error) {
		dr, err := NewDeltaRestorer(e)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pieces {
			if err := dr.Load(p); err != nil {
				return dr, err
			}
		}
		return dr, nil
	}
	v3 := [][]byte{readGolden(t, "fig7_delta0.json"), readGolden(t, "fig7_delta1.json"), readGolden(t, "fig7_delta2.json")}
	v4 := [][]byte{readGolden(t, "fig7_delta0_v4.json"), readGolden(t, "fig7_delta1_v4.json"), readGolden(t, "fig7_delta2_v4.json")}
	dr, err := load(v3...)
	if err != nil {
		t.Fatal(err)
	}
	if dm := dr.Marshaller(); dm != nil {
		t.Fatal("Marshaller extends a version-3 chain")
	}
	if dr, err = load(v4...); err != nil {
		t.Fatal(err)
	}
	dm := dr.Marshaller()
	if dm == nil {
		t.Fatal("Marshaller does not extend a version-4 chain")
	}
	en := chainEngine(t, dr)
	if err := en.Step(fig7Step(goldenSteps)); err != nil {
		t.Fatal(err)
	}
	next, err := dm.MarshalDelta(en)
	if err != nil {
		t.Fatal(err)
	}
	if dr, err = load(append(v4, next)...); err != nil {
		t.Fatal(err)
	}
	if got := chainEngine(t, dr).StateKey(); got != en.StateKey() {
		t.Fatalf("extended chain restores to %s, want %s", got, en.StateKey())
	}

	// Mixed versions: the later piece's version is checked.
	for _, tc := range []struct {
		name   string
		pieces [][]byte
	}{
		{"v3 base, v4 delta", [][]byte{v3[0], v4[1]}},
		{"v4 base, v3 delta", [][]byte{v4[0], v3[1]}},
	} {
		if _, err := load(tc.pieces...); err == nil || !strings.Contains(err.Error(), "format version") {
			t.Fatalf("%s: got %v, want a format-version error", tc.name, err)
		}
	}
	// A version-2 standalone base took version-3 deltas.
	v2, err := NewDeltaRestorer(e)
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Replace(v3[0], []byte(`{"v":3,`), []byte(`{"v":2,`), 1)
	if err := v2.Load(base); err != nil {
		t.Fatal(err)
	}
	if err := v2.Load(v3[1]); err != nil {
		t.Fatalf("version-3 delta on a version-2 base: %v", err)
	}
	if v2.Marshaller() != nil {
		t.Fatal("Marshaller extends a version-2 chain")
	}
}
