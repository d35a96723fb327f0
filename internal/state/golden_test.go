package state

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/paper"
)

// Golden checkpoints of a Fig 7 engine mid-visit. fig7_snapshot.json
// (format version 2) and the chain fig7_delta0..2.json (version 3) were
// written by the encoder that stored quantifier branches substituted: a
// standalone snapshot after goldenSteps fig7Step actions, and a chain
// whose base and two deltas were taken after goldenSteps-6, -3 and
// goldenSteps actions. Restoring them yields branches in that
// substituted form, which the walk binds as they are; re-marshalling
// them writes the same nodes in version 4, the _v4 files. An engine
// driven from the start holds its branches parametric and writes
// fig7_live_v4.json. Every file must restore, re-marshal to the same
// bytes where its version is current, and continue to the same keys as
// the engine that wrote the version-2/3 files.
const (
	goldenSteps    = 1000
	goldenContinue = 1000
	// goldenDigest is the digest of StateKey() after each of the
	// goldenContinue steps that follow, recorded with the files.
	goldenDigest = "30451260e6af1948f3d2f437a7b84767ce0b35078cacc0ec0ca0c42c0f6bb2d0"
)

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// continueDigest drives en through the next goldenContinue fig7Step
// actions and digests StateKey() after each.
func continueDigest(t *testing.T, en *Engine) string {
	t.Helper()
	h := sha256.New()
	for i := goldenSteps; i < goldenSteps+goldenContinue; i++ {
		if err := en.Step(fig7Step(i)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		h.Write([]byte(en.StateKey()))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// drive returns a Fig 7 engine after the first n fig7Step actions.
func drive(t *testing.T, n int) *Engine {
	t.Helper()
	en := MustEngine(paper.Fig7Coupled())
	for i := 0; i < n; i++ {
		if err := en.Step(fig7Step(i)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return en
}

// restoreGolden restores a standalone golden snapshot after goldenSteps
// actions.
func restoreGolden(t *testing.T, data []byte) *Engine {
	t.Helper()
	en, err := RestoreEngine(paper.Fig7Coupled(), data)
	if err != nil {
		t.Fatal(err)
	}
	if en.Steps() != goldenSteps {
		t.Fatalf("restored %d steps, want %d", en.Steps(), goldenSteps)
	}
	return en
}

func marshal(t *testing.T, en *Engine) []byte {
	t.Helper()
	data, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestGoldenSnapshotFig7(t *testing.T) {
	v4, live := readGolden(t, "fig7_snapshot_v4.json"), readGolden(t, "fig7_live_v4.json")
	old := restoreGolden(t, readGolden(t, "fig7_snapshot.json"))
	if !bytes.Equal(marshal(t, old), v4) {
		t.Fatalf("re-marshalled version-2 snapshot differs from fig7_snapshot_v4.json")
	}
	if !bytes.Equal(marshal(t, drive(t, goldenSteps)), live) {
		t.Fatalf("snapshot of a live engine differs from fig7_live_v4.json")
	}
	engines := []*Engine{old}
	for _, data := range [][]byte{v4, live} {
		en := restoreGolden(t, data)
		if !bytes.Equal(marshal(t, en), data) {
			t.Fatalf("re-marshalled version-4 snapshot differs from its golden file")
		}
		engines = append(engines, en)
	}
	key := old.StateKey()
	for i, en := range engines {
		if en.StateKey() != key {
			t.Fatalf("engine %d restores to a different key", i)
		}
		if got := continueDigest(t, en); got != goldenDigest {
			t.Fatalf("engine %d: state key digest %s, want %s", i, got, goldenDigest)
		}
	}
}

func TestGoldenDeltaChainFig7(t *testing.T) {
	e := paper.Fig7Coupled()
	old, err := NewDeltaRestorer(e)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := NewDeltaRestorer(e)
	if err != nil {
		t.Fatal(err)
	}
	dmOld, dmV4 := NewDeltaMarshaller(), NewDeltaMarshaller()
	for i := range 3 {
		piece := readGolden(t, fmt.Sprintf("fig7_delta%d.json", i))
		want := readGolden(t, fmt.Sprintf("fig7_delta%d_v4.json", i))
		if err := old.Load(piece); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
		if got := marshalPiece(t, dmOld, chainEngine(t, old), i); !bytes.Equal(got, want) {
			t.Fatalf("re-marshalled version-3 piece %d differs from its version-4 golden file", i)
		}
		if err := v4.Load(want); err != nil {
			t.Fatalf("version-4 piece %d: %v", i, err)
		}
		if got := marshalPiece(t, dmV4, chainEngine(t, v4), i); !bytes.Equal(got, want) {
			t.Fatalf("re-marshalled version-4 piece %d differs from its golden file", i)
		}
	}
	for _, dr := range []*DeltaRestorer{old, v4} {
		en := chainEngine(t, dr)
		if en.Steps() != goldenSteps {
			t.Fatalf("restored %d steps, want %d", en.Steps(), goldenSteps)
		}
		if got := continueDigest(t, en); got != goldenDigest {
			t.Fatalf("state key digest %s, want %s", got, goldenDigest)
		}
	}
}

func chainEngine(t *testing.T, dr *DeltaRestorer) *Engine {
	t.Helper()
	en, err := dr.Engine()
	if err != nil {
		t.Fatal(err)
	}
	return en
}

// marshalPiece writes piece i of a delta chain: the base, then deltas.
func marshalPiece(t *testing.T, dm *DeltaMarshaller, en *Engine, i int) []byte {
	t.Helper()
	var data []byte
	var err error
	if i == 0 {
		data, err = dm.MarshalBase(en)
	} else {
		data, err = dm.MarshalDelta(en)
	}
	if err != nil {
		t.Fatal(err)
	}
	return data
}
