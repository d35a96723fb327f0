package manager

import (
	"errors"
	"net"
	"path/filepath"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/storage"
)

// Manager-level replication tests: frames, epochs, fencing, resync.
// Everything here synchronizes on protocol replies (SyncReplicas acks or
// direct ApplyReplicated calls) — no sleeps.

// replNode is one replica under test: a manager plus its wire server.
type replNode struct {
	t   *testing.T
	e   *expr.Expr
	m   *Manager
	srv *Server
}

func startReplNode(t *testing.T, e *expr.Expr, opts Options) *replNode {
	t.Helper()
	m, err := New(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n := &replNode{t: t, e: e, m: m, srv: NewServer(m, ln)}
	t.Cleanup(func() { n.stop() })
	return n
}

func (n *replNode) stop() {
	if n.srv != nil {
		n.srv.Close()
		n.m.Close()
		n.srv = nil
	}
}

// primaryFor builds a primary replicating synchronously to the followers.
func primaryFor(t *testing.T, e *expr.Expr, followers ...*replNode) *Manager {
	t.Helper()
	var addrs []string
	for _, f := range followers {
		addrs = append(addrs, f.srv.Addr())
	}
	m, err := New(e, Options{Replicas: addrs, SyncReplicas: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestReplicationStreamsCommits: every commit path — atomic request,
// ask/confirm, group-committed batch — reaches the follower before the
// client is acknowledged (sync acks), action by action.
func TestReplicationStreamsCommits(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	f := startReplNode(t, e, Options{Follower: true})
	p := primaryFor(t, e, f)

	// Atomic request.
	if err := p.Request(bg, act("a")); err != nil {
		t.Fatalf("request a: %v", err)
	}
	if got := f.m.Steps(); got != 1 {
		t.Fatalf("follower steps after request: got %d want 1", got)
	}
	// Ask/confirm (the ticket travels in the frame).
	tk, err := p.Ask(bg, act("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Confirm(tk); err != nil {
		t.Fatal(err)
	}
	if got := f.m.Steps(); got != 2 {
		t.Fatalf("follower steps after confirm: got %d want 2", got)
	}
	// The follower answers a retried confirm from its replicated window.
	if err := f.m.Confirm(tk); err != nil {
		t.Fatalf("follower confirm retry: %v", err)
	}
	if got := f.m.Steps(); got != 2 {
		t.Fatalf("follower double-applied the confirm: %d steps", got)
	}
	// States converged exactly.
	if p.StateKey() != f.m.StateKey() {
		t.Fatalf("state divergence:\n primary  %s\n follower %s", p.StateKey(), f.m.StateKey())
	}
}

// TestReplicationBatchedCommits: one commit is one replication frame. An
// unbatched RequestMany reaches the follower as exactly one frame, a
// group-committed burst as one frame per batch the primary reports (and
// fewer frames than actions: the burst is coalesced), and
// every sequential Request as one more; the follower matches the
// primary's step count.
func TestReplicationBatchedCommits(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	for _, batch := range []int{0, 16} {
		f := startReplNode(t, e, Options{Follower: true})
		reg := obs.NewRegistry()
		p, err := New(e, Options{Replicas: []string{f.srv.Addr()}, SyncReplicas: true, BatchMaxSize: batch, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()

		acts := make([]expr.Action, 24)
		for i := range acts {
			acts[i] = act("a")
		}
		for i, err := range p.RequestMany(bg, acts) {
			if err != nil {
				t.Fatalf("batch %d: burst slot %d: %v", batch, i, err)
			}
		}
		frames, commits := f.m.Stats().ReplFrames, int(reg.Histogram(mBatchSize).Snapshot().Count)
		if frames != commits || batch == 0 && commits != 1 || frames >= len(acts) {
			t.Fatalf("batch %d: burst of %d made %d commits, reached the follower as %d frames", batch, len(acts), commits, frames)
		}
		for i := 0; i < 8; i++ {
			if err := p.Request(bg, act("b")); err != nil {
				t.Fatal(err)
			}
		}
		if got := f.m.Stats().ReplFrames - frames; got != 8 {
			t.Fatalf("batch %d: 8 requests reached the follower as %d frames", batch, got)
		}
		if got, want := f.m.Steps(), len(acts)+8; got != want {
			t.Fatalf("batch %d: follower steps: got %d want %d", batch, got, want)
		}
	}
}

// TestReplicationSnapshotResync: a follower that joins late (or lost
// frames) is healed with a full state snapshot on the next commit.
func TestReplicationSnapshotResync(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	f2 := startReplNode(t, e, Options{Follower: true})
	fAddr := f2.srv.Addr()
	p2 := primaryFor(t, e, f2)
	f2.stop() // follower down: commits miss it
	if err := p2.Request(bg, act("a")); !errors.Is(err, ErrUncertain) {
		t.Fatalf("commit without reachable follower: want ErrUncertain, got %v", err)
	}
	if err := p2.Request(bg, act("a")); !errors.Is(err, ErrUncertain) {
		t.Fatalf("second commit without follower: want ErrUncertain, got %v", err)
	}
	// The follower returns (fresh state, same address is not required for
	// the stream — it re-dials the configured address).
	f3 := &replNode{t: t, e: e}
	m, err := New(e, Options{Follower: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", fAddr)
	if err != nil {
		t.Fatal(err)
	}
	f3.m, f3.srv = m, NewServer(m, ln)
	t.Cleanup(func() { f3.stop() })

	// The next commit gaps (the follower is at 0, the frame base is 2),
	// triggering a snapshot resync; the sync ack proves it completed.
	if err := p2.Request(bg, act("b")); err != nil {
		t.Fatalf("commit after follower restart: %v", err)
	}
	if got := f3.m.Steps(); got != 3 {
		t.Fatalf("resynced follower steps: got %d want 3", got)
	}
	if st := f3.m.Stats(); st.ReplResyncs != 1 {
		t.Fatalf("resyncs: got %d want 1", st.ReplResyncs)
	}
	if p2.StateKey() != f3.m.StateKey() {
		t.Fatal("state divergence after snapshot resync")
	}
}

// TestReplicationEpochFencing exercises the fencing matrix directly:
// stale epochs rejected, gaps detected, higher epochs adopted (deposing
// a primary), divergent tails healed only via snapshot.
func TestReplicationEpochFencing(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	m := MustNew(e, Options{Follower: true})
	defer m.Close()

	// Frame at epoch 3 adopted from scratch (base 0 matches).
	st, err := m.ApplyReplicated(ReplFrame{Epoch: 3, PrevEpoch: 0, Base: 0, Actions: []expr.Action{act("a")}})
	if err != nil {
		t.Fatalf("initial frame: %v", err)
	}
	if st.Epoch != 3 || st.Steps != 1 {
		t.Fatalf("status after frame: %+v", st)
	}
	// Stale epoch rejected, and the answer names the fencing epoch.
	if st, err = m.ApplyReplicated(ReplFrame{Epoch: 2, PrevEpoch: 3, Base: 1, Actions: []expr.Action{act("b")}}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale frame: want ErrStaleEpoch, got %v", err)
	} else if st.Epoch != 3 {
		t.Fatalf("fencing status: %+v", st)
	}
	// Base mismatch → gap.
	if _, err = m.ApplyReplicated(ReplFrame{Epoch: 3, PrevEpoch: 3, Base: 5, Actions: []expr.Action{act("b")}}); !errors.Is(err, ErrReplGap) {
		t.Fatalf("gapped frame: want ErrReplGap, got %v", err)
	}
	// Commit-epoch mismatch → gap even when the base lines up (divergent
	// tail from a deposed primary).
	if _, err = m.ApplyReplicated(ReplFrame{Epoch: 4, PrevEpoch: 2, Base: 1, Actions: []expr.Action{act("b")}}); !errors.Is(err, ErrReplGap) {
		t.Fatalf("divergent frame: want ErrReplGap, got %v", err)
	}
	// A primary refuses frames at its own epoch (split brain) and from
	// below, but a higher epoch deposes it.
	epoch, err := m.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if _, err = m.ApplyReplicated(ReplFrame{Epoch: epoch, PrevEpoch: 3, Base: 1, Actions: []expr.Action{act("b")}}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("same-epoch frame to a primary: want ErrStaleEpoch, got %v", err)
	}
	if _, err = m.ApplyReplicated(ReplFrame{Epoch: epoch + 1, PrevEpoch: 3, Base: 1, Actions: []expr.Action{act("b")}}); err != nil {
		t.Fatalf("deposing frame: %v", err)
	}
	if st := m.Status(); st.Role != RoleFollower || st.Epoch != epoch+1 {
		t.Fatalf("deposed status: %+v", st)
	}
}

// TestReplicatedImpermissibleActionIsGap: a frame that lines up by
// position and epoch but carries an action the follower's state does not
// permit is divergence — the follower's one τ̂ evaluation finds no
// successor, answers ErrReplGap (provoking the snapshot resync) and
// leaves its engine and its log as they were.
func TestReplicatedImpermissibleActionIsGap(t *testing.T) {
	store := storage.NewMemory()
	m := MustNew(parse.MustParse("(a - b)*"), Options{Follower: true, Storage: store})
	defer m.Close()
	if _, err := m.ApplyReplicated(ReplFrame{Epoch: 1, Actions: []expr.Action{act("a")}}); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	key, logBytes := m.StateKey(), mustLogBytes(t, store)
	st, err := m.ApplyReplicated(ReplFrame{Epoch: 1, PrevEpoch: 1, Base: 1, Actions: []expr.Action{act("a")}})
	if !errors.Is(err, ErrReplGap) {
		t.Fatalf("impermissible replicated action: want ErrReplGap, got %v", err)
	}
	if st.Steps != 1 || m.Steps() != 1 || m.StateKey() != key {
		t.Fatalf("refused frame moved the follower: status %+v, steps %d, state %s", st, m.Steps(), m.StateKey())
	}
	if got := mustLogBytes(t, store); got != logBytes {
		t.Fatalf("refused frame wrote to the log: %d bytes, had %d", got, logBytes)
	}
	// The follower is still in step with the primary's timeline.
	if _, err := m.ApplyReplicated(ReplFrame{Epoch: 1, PrevEpoch: 1, Base: 1, Actions: []expr.Action{act("b")}}); err != nil {
		t.Fatalf("frame after the refused one: %v", err)
	}
}

func mustLogBytes(t *testing.T, b storage.Backend) int64 {
	t.Helper()
	n, err := b.LogBytes()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFollowerRejectsWrites: a follower serves reads and refuses writes
// with ErrNotPrimary until promoted.
func TestFollowerRejectsWrites(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	m := MustNew(e, Options{Follower: true})
	defer m.Close()

	if _, err := m.Ask(bg, act("a")); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("ask on follower: want ErrNotPrimary, got %v", err)
	}
	if err := m.Request(bg, act("a")); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("request on follower: want ErrNotPrimary, got %v", err)
	}
	for _, err := range m.RequestMany(bg, []expr.Action{act("a")}) {
		if !errors.Is(err, ErrNotPrimary) {
			t.Fatalf("request_many on follower: want ErrNotPrimary, got %v", err)
		}
	}
	// Reads work: a is permissible in the initial state.
	if !m.Try(act("a")) {
		t.Fatal("follower should answer Try")
	}
	// Promotion opens the write path and bumps the epoch into the ticket.
	epoch, err := m.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("promotion should mint a fresh epoch")
	}
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatalf("ask after promotion: %v", err)
	}
	if uint64(tk)>>ticketEpochShift != epoch {
		t.Fatalf("ticket %d does not carry epoch %d", tk, epoch)
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatal(err)
	}
}

// TestReplicationEpochPersists: a restarted replica remembers the epoch
// that fenced its timeline, so a deposed primary cannot shed its fencing
// by restarting.
func TestReplicationEpochPersists(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	dir := t.TempDir()
	opts := Options{
		Follower:     true,
		LogPath:      filepath.Join(dir, "actions.log"),
		SnapshotPath: filepath.Join(dir, "state.snap"),
	}
	m := MustNew(e, opts)
	if _, err := m.ApplyReplicated(ReplFrame{Epoch: 7, Base: 0, Actions: []expr.Action{act("a")}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2 := MustNew(e, opts)
	defer m2.Close()
	st := m2.Status()
	if st.Epoch != 7 || st.Steps != 1 {
		t.Fatalf("recovered status: %+v (epoch/steps lost)", st)
	}
	if _, err := m2.ApplyReplicated(ReplFrame{Epoch: 6, PrevEpoch: 7, Base: 1, Actions: []expr.Action{act("b")}}); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale frame after restart: want ErrStaleEpoch, got %v", err)
	}
}

// TestReplicationStalePrimaryDeposed: the split-brain end to end over the
// wire — a promoted follower fences the old primary's next commit, the
// old primary demotes itself and starts refusing writes.
func TestReplicationStalePrimaryDeposed(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	f := startReplNode(t, e, Options{Follower: true})
	p := primaryFor(t, e, f)

	if err := p.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	// Out-of-band promotion (a second gateway, an operator): the follower
	// becomes primary of epoch 1 without the old primary knowing.
	if _, err := f.m.Promote(); err != nil {
		t.Fatal(err)
	}
	// The old primary's next commit is applied locally, then fenced at
	// replication time: the client is told the outcome is uncertain.
	if err := p.Request(bg, act("a")); !errors.Is(err, ErrUncertain) {
		t.Fatalf("fenced commit: want ErrUncertain, got %v", err)
	}
	// The fencing demoted it: writes now fail fast, before any commit.
	if err := p.Request(bg, act("a")); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("write on deposed primary: want ErrNotPrimary, got %v", err)
	}
	if st := p.Status(); st.Role != RoleFollower || st.Epoch != 1 {
		t.Fatalf("deposed primary status: %+v", st)
	}
}
