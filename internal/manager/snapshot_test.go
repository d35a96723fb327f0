package manager

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/expr"
	"repro/internal/paper"
	"repro/internal/parse"
	"repro/internal/storage"
)

func snapOpts(t *testing.T, every int) (Options, string, string) {
	t.Helper()
	dir := t.TempDir()
	logPath := filepath.Join(dir, "actions.log")
	snapPath := filepath.Join(dir, "state.snap")
	return Options{LogPath: logPath, SnapshotPath: snapPath, SnapshotEvery: every}, logPath, snapPath
}

func confirmN(t *testing.T, m *Manager, actions ...expr.Action) {
	t.Helper()
	for _, a := range actions {
		if err := m.Request(bg, a); err != nil {
			t.Fatalf("request %s: %v", a, err)
		}
	}
}

func callPerform(n int) []expr.Action {
	var out []expr.Action
	for i := 0; i < n; i++ {
		p := expr.ConcreteAct("call", patientName(i))
		q := expr.ConcreteAct("perform", patientName(i))
		out = append(out, p, q)
	}
	return out
}

func patientName(i int) string { return string(rune('a'+i%26)) + "p" }

// TestSnapshotCheckpointAndRecover: after a crash (no Close), the state
// is rebuilt from snapshot + log tail and is behaviourally identical.
func TestSnapshotCheckpointAndRecover(t *testing.T) {
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	opts, logPath, snapPath := snapOpts(t, 3)

	m1 := MustNew(e, opts)
	confirmN(t, m1, callPerform(3)...)                // 6 confirms → snapshots at 3 and 6
	confirmN(t, m1, expr.ConcreteAct("call", "open")) // 7th: only in the log tail
	if st := m1.Stats(); st.Snapshots != 2 {
		t.Fatalf("snapshots written: got %d want 2", st.Snapshots)
	}
	// Crash: abandon m1 without Close. The log holds only the tail.
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot file: %v", err)
	}

	m2 := MustNew(e, opts)
	defer m2.Close()
	if got := m2.Steps(); got != 7 {
		t.Fatalf("recovered steps: got %d want 7", got)
	}
	// Patient "open" is mid-round: call denied, perform allowed.
	if m2.Try(expr.ConcreteAct("call", "open")) {
		t.Error("call(open) should be denied after recovery")
	}
	if !m2.Try(expr.ConcreteAct("perform", "open")) {
		t.Error("perform(open) should be permitted after recovery")
	}
	_ = logPath
}

// TestSnapshotTruncatesLog: checkpoints keep the log bounded, and a clean
// Close leaves an empty log (restart replays nothing).
func TestSnapshotTruncatesLog(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	opts, logPath, _ := snapOpts(t, 5)
	m := MustNew(e, opts)
	for i := 0; i < 23; i++ {
		confirmN(t, m, act("a"))
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("log should be empty after parting checkpoint, has %d bytes: %q", len(data), data)
	}
	m2 := MustNew(e, opts)
	defer m2.Close()
	if got := m2.Steps(); got != 23 {
		t.Fatalf("recovered steps: got %d want 23", got)
	}
}

// TestSnapshotCrashBeforeTruncate: if the crash hits after the snapshot
// is durable but before the log is truncated, recovery must not
// double-apply the logged actions the snapshot already covers.
func TestSnapshotCrashBeforeTruncate(t *testing.T) {
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	opts, logPath, _ := snapOpts(t, 0) // manual checkpoints only

	m := MustNew(e, opts)
	confirmN(t, m, callPerform(2)...)
	confirmN(t, m, expr.ConcreteAct("call", "pend"))
	// Save the log, checkpoint (which truncates), then put the stale log
	// back — exactly the on-disk picture of a crash before truncation.
	stale, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := MustNew(e, opts)
	defer m2.Close()
	if got := m2.Steps(); got != 5 {
		t.Fatalf("recovered steps: got %d want 5 (stale entries must be skipped)", got)
	}
	if m2.Try(expr.ConcreteAct("call", "pend")) {
		t.Error("call(pend) should be denied: replaying the stale tail twice would corrupt the state")
	}
}

// TestSnapshotRestoresReservation: an outstanding reservation survives a
// checkpointed restart, so the granted client can still confirm.
func TestSnapshotRestoresReservation(t *testing.T) {
	e := parse.MustParse("a - b")
	opts, _, _ := snapOpts(t, 0)

	m := MustNew(e, opts)
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}

	m2 := MustNew(e, opts)
	defer m2.Close()
	if err := m2.Confirm(tk); err != nil {
		t.Fatalf("confirm with pre-restart ticket: %v", err)
	}
	if !m2.Try(act("b")) {
		t.Error("b should be permitted after the confirmed a")
	}
}

// TestSnapshotExpiredReservationDropped: a restored reservation that
// outlived the timeout is aborted on recovery.
func TestSnapshotExpiredReservationDropped(t *testing.T) {
	e := parse.MustParse("a - b")
	opts, _, _ := snapOpts(t, 0)
	opts.ReservationTimeout = time.Hour

	m := MustNew(e, opts)
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}

	opts2 := opts
	opts2.Clock = clock.Func(func() time.Time { return time.Now().Add(2 * time.Hour) })
	m2 := MustNew(e, opts2)
	defer m2.Close()
	if err := m2.Confirm(tk); err == nil {
		t.Fatal("expired reservation should not be confirmable")
	}
	// The region must be free for new asks.
	if _, err := m2.Ask(bg, act("a")); err != nil {
		t.Fatalf("ask after expiry: %v", err)
	}
}

// TestLegacyLogReplay: logs written before sequence numbers existed (no
// "s" field) still recover by positional numbering.
func TestLegacyLogReplay(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "actions.log")
	legacy := `{"a":"call","v":["p1"]}` + "\n" + `{"a":"perform","v":["p1"]}` + "\n"
	if err := os.WriteFile(logPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	m := MustNew(e, Options{LogPath: logPath})
	defer m.Close()
	if got := m.Steps(); got != 2 {
		t.Fatalf("legacy replay steps: got %d want 2", got)
	}
}

// TestSnapshotSettledReservationCleared: a reservation captured in a
// snapshot but settled before the crash (proven by the logged confirm in
// the tail) must not be restored — it would block every Ask and would
// let a retried Confirm double-apply the action.
func TestSnapshotSettledReservationCleared(t *testing.T) {
	e := parse.MustParse("a - b")
	opts, _, _ := snapOpts(t, 0)

	m := MustNew(e, opts)
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil { // snapshot records the reservation
		t.Fatal(err)
	}
	if err := m.Confirm(tk); err != nil { // settled: the log tail proves it
		t.Fatal(err)
	}
	// Crash without Close; recover.
	m2 := MustNew(e, opts)
	defer m2.Close()
	if got := m2.Steps(); got != 1 {
		t.Fatalf("recovered steps: got %d want 1", got)
	}
	// The pre-crash ticket must not be confirmable again (double apply).
	if err := m2.Confirm(tk); err == nil {
		t.Fatal("settled pre-crash ticket should be unknown after recovery")
	}
	// And the critical region must be free: this Ask must not block.
	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	if _, err := m2.Ask(ctx, act("b")); err != nil {
		t.Fatalf("ask after recovery: %v (phantom reservation held?)", err)
	}
}

// TestConfirmIdempotentRetry: retrying the most recent confirm (a lost
// reply over the wire) succeeds without a second state transition.
func TestConfirmIdempotentRetry(t *testing.T) {
	m := MustNew(parse.MustParse("(a | b)*"), Options{})
	defer m.Close()
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatal(err)
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatalf("idempotent confirm retry: %v", err)
	}
	if got := m.Steps(); got != 1 {
		t.Fatalf("steps after retry: got %d want 1 (double apply)", got)
	}
	// A retry of an older settled ticket is still answered from the dedup
	// window — success, with no second transition. (Before replication
	// this was a single-slot check and superseded tickets failed; the
	// window widens the idempotence without ever double-applying.)
	tk2, err := m.Ask(bg, act("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Confirm(tk2); err != nil {
		t.Fatal(err)
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatalf("confirm retry of an older settled ticket: %v", err)
	}
	if got := m.Steps(); got != 2 {
		t.Fatalf("steps after older retry: got %d want 2 (double apply)", got)
	}
	// Tickets never granted still fail.
	if err := m.Confirm(tk + 999); !errors.Is(err, ErrUnknownTicket) {
		t.Fatalf("confirm of an unknown ticket: %v", err)
	}
}

// TestRestartOverV3ChainWritesFullBase: a manager restarted over a
// checkpoint chain written in state format version 3 restores it, but
// its next checkpoint is a full version-4 base, not a delta extending
// the older chain.
func TestRestartOverV3ChainWritesFullBase(t *testing.T) {
	store := storage.NewMemory()
	// A copy of the state package's v3 Fig 7 golden chain, taken after
	// 994, 997 and 1000 actions, put in the manager's envelope.
	for i := range 3 {
		piece, err := os.ReadFile(fmt.Sprintf("testdata/fig7_v3_delta%d.json", i))
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(managerSnap{V: snapVersion, Engine: piece})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.SaveCheckpoint(storage.Checkpoint{Seq: uint64(994 + 3*i), Full: i == 0, Data: buf}); err != nil {
			t.Fatal(err)
		}
	}
	m := MustNew(paper.Fig7Coupled(), Options{Storage: store, FullCheckpointEvery: 8})
	defer m.Close()
	if m.Steps() != 1000 {
		t.Fatalf("restored %d steps, want 1000", m.Steps())
	}
	confirmN(t, m, paper.PrepareAct("fresh", paper.ExamSono))
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	chain, err := store.RestoreChain()
	if err != nil {
		t.Fatal(err)
	}
	var snap managerSnap
	if err := json.Unmarshal(chain[0].Data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || !chain[0].Full || chain[0].Seq != 1001 || !bytes.HasPrefix(snap.Engine, []byte(`{"v":4,"expr"`)) {
		t.Fatalf("next checkpoint: %d pieces, full %t at %d, engine %.20s; want one full version-4 base at 1001",
			len(chain), chain[0].Full, chain[0].Seq, snap.Engine)
	}
}
