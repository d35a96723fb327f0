package state

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/paper"
)

// Golden checkpoints of a Fig 7 engine mid-visit, written by the engine
// whose quantifier branches held substituted states: a standalone
// snapshot after goldenSteps fig7Step actions, and a delta chain whose
// base and two deltas were taken after goldenSteps-6, -3 and goldenSteps
// actions. Restoring them yields branches in that substituted form,
// which the walk binds as they are; the engine's own later branches are
// over the body with the parameter free. Both kinds must re-marshal to
// the same bytes and continue to the same keys as the engine that wrote
// the files, and an engine driven from the start must write the same
// files: snapshots store branches in substituted form.
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

func TestGoldenSnapshotFig7(t *testing.T) {
	data := readGolden(t, "fig7_snapshot.json")
	if live, err := drive(t, goldenSteps).MarshalState(); err != nil || !bytes.Equal(live, data) {
		t.Fatalf("snapshot of a live engine differs from the golden file (err %v)", err)
	}
	en, err := RestoreEngine(paper.Fig7Coupled(), data)
	if err != nil {
		t.Fatal(err)
	}
	if en.Steps() != goldenSteps {
		t.Fatalf("restored %d steps, want %d", en.Steps(), goldenSteps)
	}
	again, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("re-marshalled snapshot differs from the golden file")
	}
	if got := continueDigest(t, en); got != goldenDigest {
		t.Fatalf("state key digest %s, want %s", got, goldenDigest)
	}
}

func TestGoldenDeltaChainFig7(t *testing.T) {
	e := paper.Fig7Coupled()
	dr, err := NewDeltaRestorer(e)
	if err != nil {
		t.Fatal(err)
	}
	dm, live := NewDeltaMarshaller(), NewDeltaMarshaller()
	for i, name := range []string{"fig7_delta0.json", "fig7_delta1.json", "fig7_delta2.json"} {
		piece := readGolden(t, name)
		if got := marshalPiece(t, live, drive(t, goldenSteps-6+3*i), i); !bytes.Equal(got, piece) {
			t.Fatalf("piece %d of a live engine differs from the golden file", i)
		}
		if err := dr.Load(piece); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
		en, err := dr.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if again := marshalPiece(t, dm, en, i); !bytes.Equal(again, piece) {
			t.Fatalf("re-marshalled piece %d differs from the golden file", i)
		}
	}
	en, err := dr.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if en.Steps() != goldenSteps {
		t.Fatalf("restored %d steps, want %d", en.Steps(), goldenSteps)
	}
	if got := continueDigest(t, en); got != goldenDigest {
		t.Fatalf("state key digest %s, want %s", got, goldenDigest)
	}
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
