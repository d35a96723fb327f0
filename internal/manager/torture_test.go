package manager

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/parse"
	"repro/internal/state"
	"repro/internal/storage"
)

// crashForTest simulates a process crash: the manager stops dead without
// flushing buffers, writing a parting snapshot, or settling anything —
// the on-disk state is whatever previous commits made durable.
func (m *Manager) crashForTest() {
	m.mu.Lock()
	m.shutLocked()
	m.mu.Unlock()
	if c, ok := m.store.(storage.Crasher); ok {
		c.Crash() // no flush, no sync: in-buffer data dies
	}
}

// TestCrashRecoveryTorture interrupts a batched workload at randomized
// points — after a group commit, after a snapshot write with the log
// truncation "lost", and with a torn log tail — and checks after every
// restart that the replayed state equals the uninterrupted run at the
// same confirm count: no confirmed action lost, none applied twice.
func TestCrashRecoveryTorture(t *testing.T) {
	const trials = 24
	const actions = 40
	src := "(a - b)*"
	e := parse.MustParse(src)
	workload := make([]expr.Action, actions)
	for i := range workload {
		if i%2 == 0 {
			workload[i] = expr.ConcreteAct("a")
		} else {
			workload[i] = expr.ConcreteAct("b")
		}
	}
	// Reference: the uninterrupted run's state key after every prefix.
	refKeys := make([]string, actions+1)
	ref := state.MustEngine(e)
	refKeys[0] = ref.StateKey()
	for i, a := range workload {
		if err := ref.Step(a); err != nil {
			t.Fatal(err)
		}
		refKeys[i+1] = ref.StateKey()
	}

	rnd := rand.New(rand.NewSource(20010421))
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{
				LogPath:       filepath.Join(dir, "actions.log"),
				SnapshotPath:  filepath.Join(dir, "state.snap"),
				SnapshotEvery: 1 + rnd.Intn(5),
				BatchMaxSize:  1 + rnd.Intn(8), // 1 = unbatched control
				BatchMaxDelay: time.Duration(rnd.Intn(200)) * time.Microsecond,
				SyncWrites:    rnd.Intn(2) == 0,
			}
			crashAt := 1 + rnd.Intn(actions-1) // confirm count to crash after
			mode := rnd.Intn(3)

			m := MustNew(e, opts)
			confirmed := 0
			for confirmed < crashAt {
				n := 1 + rnd.Intn(4)
				if confirmed+n > crashAt {
					n = crashAt - confirmed
				}
				for i, err := range m.RequestMany(context.Background(), workload[confirmed:confirmed+n]) {
					if err != nil {
						t.Fatalf("confirm %d: %v", confirmed+i, err)
					}
				}
				confirmed += n
			}

			switch mode {
			case 0:
				// Crash right after the last group commit.
				m.crashForTest()
			case 1:
				// Crash between snapshot write and log truncation: save the
				// log, snapshot (which truncates), then put the log back —
				// on disk it is as if the truncate never happened. Recovery
				// must skip the log entries the snapshot already covers.
				saved, err := os.ReadFile(opts.LogPath)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Snapshot(); err != nil {
					t.Fatal(err)
				}
				m.crashForTest()
				if err := os.WriteFile(opts.LogPath, saved, 0o644); err != nil {
					t.Fatal(err)
				}
			case 2:
				// Crash mid-append: the log's last line is torn. Replay must
				// drop the torn tail silently; the action it belonged to was
				// never confirmed to anyone.
				m.crashForTest()
				f, err := os.OpenFile(opts.LogPath, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteString(`{"a":"a","s":`); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			// Restart: the recovered state must be exactly the reference
			// state at the crash's confirm count.
			m2, err := New(e, opts)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if got := m2.Steps(); got != confirmed {
				t.Fatalf("mode %d: recovered %d confirms, want %d (lost or double-applied)", mode, got, confirmed)
			}
			if got := m2.en.StateKey(); got != refKeys[confirmed] {
				t.Fatalf("mode %d: recovered state differs from uninterrupted run at %d confirms:\n got %s\nwant %s",
					mode, confirmed, got, refKeys[confirmed])
			}
			// Finish the workload on the recovered manager: the end state
			// must equal the uninterrupted run's.
			for i, err := range m2.RequestMany(context.Background(), workload[confirmed:]) {
				if err != nil {
					t.Fatalf("post-recovery confirm %d: %v", confirmed+i, err)
				}
			}
			if got := m2.en.StateKey(); got != refKeys[actions] {
				t.Fatalf("mode %d: final state differs from uninterrupted run", mode)
			}
			if err := m2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTornTailDoubleRestart is the headline regression: a crash
// mid-append leaves a torn final line; the first restart must TRUNCATE
// it, not just skip it — otherwise the next append welds a fresh record
// onto the torn bytes and the second restart dies on a mid-file
// "corrupt log record". On main (before the fix) this test failed at
// the second New.
func TestTornTailDoubleRestart(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	dir := t.TempDir()
	opts := Options{LogPath: filepath.Join(dir, "actions.log")}

	m := MustNew(e, opts)
	for _, n := range []string{"a", "b"} {
		if err := m.Request(context.Background(), expr.ConcreteAct(n)); err != nil {
			t.Fatal(err)
		}
	}
	m.crashForTest()
	// The crash hit mid-append: the log's final line is half a record.
	f, err := os.OpenFile(opts.LogPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"a":"a","s":`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First restart drops the torn tail; commit more work on top.
	m2, err := New(e, opts)
	if err != nil {
		t.Fatalf("first restart: %v", err)
	}
	if got := m2.Steps(); got != 2 {
		t.Fatalf("first restart recovered %d steps, want 2", got)
	}
	for _, n := range []string{"a", "b"} {
		if err := m2.Request(context.Background(), expr.ConcreteAct(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second restart: before the fix, replay hit the welded record here.
	m3, err := New(e, opts)
	if err != nil {
		t.Fatalf("second restart after torn-tail recovery: %v", err)
	}
	if got := m3.Steps(); got != 4 {
		t.Fatalf("second restart recovered %d steps, want 4", got)
	}
	if err := m3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentedDeltaCrashTorture is the segmented-storage twin of
// TestCrashRecoveryTorture: randomized crash points over a manager on
// the segmented backend with tiny segments (every trial spans several
// seals) and delta-checkpoint chains (FullCheckpointEvery > 1 makes the
// snapshot-then-crash mode land between a full base and its deltas).
// After every restart the recovered state must be byte-identical — same
// StateKey, same marshalled state — to the monolithic path's at the
// same confirm count.
func TestSegmentedDeltaCrashTorture(t *testing.T) {
	const trials = 24
	const actions = 40
	e := parse.MustParse("(a - b)*")
	workload := make([]expr.Action, actions)
	for i := range workload {
		if i%2 == 0 {
			workload[i] = expr.ConcreteAct("a")
		} else {
			workload[i] = expr.ConcreteAct("b")
		}
	}
	// Reference: the monolithic path's state at every prefix (the plain
	// engine IS the monolithic recovery target; TestCrashRecoveryTorture
	// pins the monolithic path to it).
	refKeys := make([]string, actions+1)
	refSnaps := make([][]byte, actions+1)
	ref := state.MustEngine(e)
	for i := 0; ; i++ {
		refKeys[i] = ref.StateKey()
		if refSnaps[i] = mustMarshal(t, ref); i == actions {
			break
		}
		if err := ref.Step(workload[i]); err != nil {
			t.Fatal(err)
		}
	}

	rnd := rand.New(rand.NewSource(20260808))
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{
				StorageDir:          filepath.Join(dir, "store"),
				SegmentBytes:        int64(1 + rnd.Intn(256)),
				SnapshotEvery:       1 + rnd.Intn(5),
				FullCheckpointEvery: 1 + rnd.Intn(4),
				BatchMaxSize:        1 + rnd.Intn(8),
				BatchMaxDelay:       time.Duration(rnd.Intn(200)) * time.Microsecond,
				SyncWrites:          rnd.Intn(2) == 0,
			}
			crashAt := 1 + rnd.Intn(actions-1)
			mode := rnd.Intn(3)

			m := MustNew(e, opts)
			confirmed := 0
			for confirmed < crashAt {
				n := 1 + rnd.Intn(4)
				if confirmed+n > crashAt {
					n = crashAt - confirmed
				}
				for i, err := range m.RequestMany(context.Background(), workload[confirmed:confirmed+n]) {
					if err != nil {
						t.Fatalf("confirm %d: %v", confirmed+i, err)
					}
				}
				confirmed += n
			}

			switch mode {
			case 0:
				// Crash right after the last group commit: recovery is
				// chain restore + log-tail replay across segments.
				m.crashForTest()
			case 1:
				// Crash right after a checkpoint piece lands. With
				// FullCheckpointEvery > 1 the piece is a delta (or the
				// base of a new chain) — recovery restores the whole
				// chain plus whatever log tail compaction left.
				if err := m.Snapshot(); err != nil {
					t.Fatal(err)
				}
				m.crashForTest()
			case 2:
				// Crash mid-append: torn tail in the active segment.
				m.crashForTest()
				open, _ := filepath.Glob(filepath.Join(opts.StorageDir, "*.open"))
				if len(open) != 1 {
					t.Fatalf("%d open segments, want 1", len(open))
				}
				f, err := os.OpenFile(open[0], os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteString(`{"a":"a","s":`); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			m2, err := New(e, opts)
			if err != nil {
				t.Fatalf("recovery failed (mode %d): %v", mode, err)
			}
			if got := m2.Steps(); got != confirmed {
				t.Fatalf("mode %d: recovered %d confirms, want %d", mode, got, confirmed)
			}
			if got := m2.en.StateKey(); got != refKeys[confirmed] {
				t.Fatalf("mode %d: recovered state differs from monolithic path at %d confirms:\n got %s\nwant %s",
					mode, confirmed, got, refKeys[confirmed])
			}
			if got := mustMarshal(t, m2.en); string(got) != string(refSnaps[confirmed]) {
				t.Fatalf("mode %d: recovered state does not marshal byte-identically to the monolithic path", mode)
			}
			// Finish the workload and crash-recover once more: the delta
			// chain continued after a restore must still converge.
			for i, err := range m2.RequestMany(context.Background(), workload[confirmed:]) {
				if err != nil {
					t.Fatalf("post-recovery confirm %d: %v", confirmed+i, err)
				}
			}
			m2.crashForTest()
			m3, err := New(e, opts)
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			if got := m3.Steps(); got != actions {
				t.Fatalf("second recovery: %d confirms, want %d", got, actions)
			}
			if got := m3.en.StateKey(); got != refKeys[actions] {
				t.Fatalf("final state differs from monolithic path")
			}
			if err := m3.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func mustMarshal(t *testing.T, en *state.Engine) []byte {
	t.Helper()
	buf, err := en.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDeltaChainCrashSweep walks a checkpoint-per-step manager through
// every crash point of a short workload with FullCheckpointEvery=3, so
// recovery sees every chain shape in turn: bare base, base+1 delta,
// base+2 deltas, fresh base again. Each restart must land exactly on
// the uninterrupted state.
func TestDeltaChainCrashSweep(t *testing.T) {
	const actions = 9
	e := parse.MustParse("(a - b)*")
	ref := state.MustEngine(e)
	refKeys := make([]string, actions+1)
	refKeys[0] = ref.StateKey()
	names := []string{"a", "b"}
	for i := 0; i < actions; i++ {
		if err := ref.Step(expr.ConcreteAct(names[i%2])); err != nil {
			t.Fatal(err)
		}
		refKeys[i+1] = ref.StateKey()
	}
	for crashAt := 1; crashAt <= actions; crashAt++ {
		crashAt := crashAt
		t.Run(fmt.Sprintf("crashAt=%d", crashAt), func(t *testing.T) {
			opts := Options{
				StorageDir:          filepath.Join(t.TempDir(), "store"),
				SnapshotEvery:       1, // checkpoint after every confirm
				FullCheckpointEvery: 3,
			}
			m := MustNew(e, opts)
			for i := 0; i < crashAt; i++ {
				if err := m.Request(context.Background(), expr.ConcreteAct(names[i%2])); err != nil {
					t.Fatal(err)
				}
			}
			m.crashForTest()
			m2, err := New(e, opts)
			if err != nil {
				t.Fatalf("recovery at %d confirms: %v", crashAt, err)
			}
			if got := m2.Steps(); got != crashAt {
				t.Fatalf("recovered %d confirms, want %d", got, crashAt)
			}
			if got := m2.en.StateKey(); got != refKeys[crashAt] {
				t.Fatalf("recovered state differs at %d confirms", crashAt)
			}
			if err := m2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCrashRecoveryConcurrentTorture crashes a manager under concurrent
// batched load with requests in flight. Acknowledged confirms must all
// survive recovery; in-flight ones may or may not have committed, but the
// recovered state must be a replayable prefix-consistent state, and a
// second crash-recovery cycle must reproduce it bit for bit.
func TestCrashRecoveryConcurrentTorture(t *testing.T) {
	const trials = 6
	rnd := rand.New(rand.NewSource(7))
	e := parse.MustParse("(a | b | c)*")
	names := []string{"a", "b", "c"}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial=%d", trial), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{
				LogPath:       filepath.Join(dir, "actions.log"),
				SnapshotPath:  filepath.Join(dir, "state.snap"),
				SnapshotEvery: 1 + rnd.Intn(4),
				BatchMaxSize:  2 + rnd.Intn(15),
				SyncWrites:    trial%2 == 0,
			}
			m := MustNew(e, opts)
			var acked, issued int64
			var ackedMu sync.Mutex
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for c := 0; c < 4; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					a := expr.ConcreteAct(names[c%len(names)])
					for {
						select {
						case <-stop:
							return
						default:
						}
						ackedMu.Lock()
						issued++
						ackedMu.Unlock()
						err := m.Request(context.Background(), a)
						if err != nil {
							if errors.Is(err, ErrClosed) {
								return
							}
							t.Error(err)
							return
						}
						ackedMu.Lock()
						acked++
						ackedMu.Unlock()
					}
				}(c)
			}
			time.Sleep(time.Duration(1+rnd.Intn(10)) * time.Millisecond)
			m.crashForTest() // in-flight requests die with it
			close(stop)
			wg.Wait()

			m2, err := New(e, opts)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			steps := int64(m2.Steps())
			if steps < acked {
				t.Fatalf("lost confirms: %d acknowledged, only %d recovered", acked, steps)
			}
			if steps > issued {
				t.Fatalf("double-applied confirms: %d recovered, only %d ever issued", steps, issued)
			}
			key := m2.en.StateKey()
			// Crash the recovered manager too: a second recovery from the
			// same files must land on the identical state (determinism of
			// snapshot + log-tail replay).
			m2.crashForTest()
			m3, err := New(e, opts)
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			if got := m3.en.StateKey(); got != key {
				t.Fatalf("recovery is not deterministic:\n first  %s\n second %s", key, got)
			}
			if int64(m3.Steps()) != steps {
				t.Fatalf("second recovery: %d steps, want %d", m3.Steps(), steps)
			}
			if err := m3.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
