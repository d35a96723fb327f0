package manager

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/parse"
)

// Elastic-membership unit tests: drain semantics, runtime attach/detach
// of follower streams, and the wire surface that exposes them. Like the
// replication suite, everything synchronizes on protocol replies (sync
// acks, Drain returns, channel sends) — no sleeps.

// TestDrainRejectsNewAsksLetsInflightSettle: drain refuses fresh asks
// with the retryable sentinel, waits for the outstanding reservation to
// settle, and Resume reopens the shop.
func TestDrainRejectsNewAsksLetsInflightSettle(t *testing.T) {
	m := MustNew(parse.MustParse("(a - b)*"), Options{})
	defer m.Close()

	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Drain with the ticket outstanding: it must block until the confirm.
	drained := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		drained <- m.Drain(bg)
	}()
	<-started
	// The in-flight ticket settles normally while draining...
	if err := m.Confirm(tk); err != nil {
		t.Fatalf("confirm while draining: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// ...but new asks and requests are refused with the sentinel.
	if _, err := m.Ask(bg, act("b")); !errors.Is(err, ErrDraining) {
		t.Fatalf("ask while drained: want ErrDraining, got %v", err)
	}
	if err := m.Request(bg, act("b")); !errors.Is(err, ErrDraining) {
		t.Fatalf("request while drained: want ErrDraining, got %v", err)
	}
	// The direct (unbatched) RequestMany path is refused too.
	for i, err := range m.RequestMany(bg, []expr.Action{act("b")}) {
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("request_many slot %d while drained: want ErrDraining, got %v", i, err)
		}
	}
	if !m.Draining() {
		t.Fatal("manager should report draining")
	}
	if err := m.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := m.Request(bg, act("b")); err != nil {
		t.Fatalf("request after resume: %v", err)
	}
}

// TestDrainWaitsForQueuedGroupCommits: requests already admitted to the
// commit queue settle before Drain returns; requests arriving after the
// drain flag are refused at admission.
func TestDrainWaitsForQueuedGroupCommits(t *testing.T) {
	m := MustNew(parse.MustParse("(a | b)*"), Options{BatchMaxSize: 8, BatchMaxDelay: time.Millisecond})
	defer m.Close()

	// Park a group leader behind a reservation so queued requests pile up.
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	const queued = 4
	done := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() { done <- m.Request(bg, act("b")) }()
	}
	// Wait until all four are admitted (counted as pending).
	for m.batch.pending.Load() < queued {
		time.Sleep(time.Millisecond)
	}
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(bg) }()
	// Release the region: the queued batch commits, then the drain
	// completes.
	if err := m.Confirm(tk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queued; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued request %d: %v", i, err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := m.Steps(); got != queued+1 {
		t.Fatalf("steps: got %d want %d", got, queued+1)
	}
	// Fresh batched requests are refused at admission.
	if err := m.Request(bg, act("b")); !errors.Is(err, ErrDraining) {
		t.Fatalf("batched request while drained: want ErrDraining, got %v", err)
	}
	for i, err := range m.RequestMany(bg, []expr.Action{act("a"), act("b")}) {
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("request_many slot %d while drained: want ErrDraining, got %v", i, err)
		}
	}
}

// TestDemotionClearsDrain: fencing a drained migration source demotes
// it AND lifts the drain — a deposed node must answer ErrNotPrimary
// (fail over!), never ErrDraining (wait), and a later re-promotion must
// serve immediately instead of inheriting a stale refusal.
func TestDemotionClearsDrain(t *testing.T) {
	m := MustNew(parse.MustParse("(a | b)*"), Options{})
	defer m.Close()
	if err := m.Drain(bg); err != nil {
		t.Fatal(err)
	}
	// The migration's fence: an (empty) frame of the new primary's epoch.
	if _, err := m.ApplyReplicated(ReplFrame{Epoch: 1}); err != nil {
		t.Fatalf("fence: %v", err)
	}
	if m.Draining() {
		t.Fatal("fenced source still draining")
	}
	if err := m.Request(bg, act("a")); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("fenced source: want ErrNotPrimary, got %v", err)
	}
	if _, err := m.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := m.Request(bg, act("a")); err != nil {
		t.Fatalf("request after re-promotion: %v", err)
	}
}

// TestFollowerAnswersNotPrimaryOverDraining: when a node is both a
// follower and draining, every admission path answers ErrNotPrimary —
// the error that makes clients elect elsewhere, not wait here.
func TestFollowerAnswersNotPrimaryOverDraining(t *testing.T) {
	// Batched, Request and RequestMany are refused at the writer queue;
	// unbatched, each call is a group of its own: the role refusal must
	// win on both paths.
	for _, batch := range []int{0, 8} {
		m := MustNew(parse.MustParse("(a | b)*"), Options{Follower: true, BatchMaxSize: batch})
		defer m.Close()
		if err := m.Drain(bg); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Ask(bg, act("a")); !errors.Is(err, ErrNotPrimary) {
			t.Fatalf("batch %d: ask: want ErrNotPrimary, got %v", batch, err)
		}
		if err := m.Request(bg, act("a")); !errors.Is(err, ErrNotPrimary) {
			t.Fatalf("batch %d: request: want ErrNotPrimary, got %v", batch, err)
		}
		for i, err := range m.RequestMany(bg, []expr.Action{act("a")}) {
			if !errors.Is(err, ErrNotPrimary) {
				t.Fatalf("batch %d: request_many slot %d: want ErrNotPrimary, got %v", batch, i, err)
			}
		}
	}
}

// TestAttachReplicaLive: a primary born without replicas attaches a
// follower at runtime — the attach ships a snapshot that carries the
// history so far, and later commits stream to it under the manager's
// SyncReplicas setting.
func TestAttachReplicaLive(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	p := MustNew(e, Options{SyncReplicas: true})
	defer p.Close()
	if err := p.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}

	f := startReplNode(t, e, Options{Follower: true})
	st, err := p.AttachReplica(bg, f.srv.Addr())
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if st.Steps != 1 {
		t.Fatalf("attach ack steps: got %d want 1 (snapshot carries the pre-attach history)", st.Steps)
	}
	if got := f.m.Steps(); got != 1 {
		t.Fatalf("follower steps after attach: got %d want 1", got)
	}
	// Later commits stream synchronously (the lazily created replicator
	// inherits SyncReplicas from the options).
	if err := p.Request(bg, act("b")); err != nil {
		t.Fatal(err)
	}
	if got := f.m.Steps(); got != 2 {
		t.Fatalf("follower steps after streamed commit: got %d want 2", got)
	}
	ti := p.Topology()
	if len(ti.Replicas) != 1 || ti.Replicas[0] != f.srv.Addr() {
		t.Fatalf("topology replicas: %v", ti.Replicas)
	}

	// Detach: the follower stops receiving frames.
	if err := p.DetachReplica(f.srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := p.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	if got := f.m.Steps(); got != 2 {
		t.Fatalf("detached follower advanced: %d steps", got)
	}
	if got := len(p.Topology().Replicas); got != 0 {
		t.Fatalf("topology after detach: %d streams", got)
	}
}

// TestAttachReplicaRequiresPrimary: a follower refuses to grow streams.
func TestAttachReplicaRequiresPrimary(t *testing.T) {
	m := MustNew(parse.MustParse("(a | b)*"), Options{Follower: true})
	defer m.Close()
	if _, err := m.AttachReplica(bg, "127.0.0.1:1"); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("attach on follower: want ErrNotPrimary, got %v", err)
	}
}

// TestElasticWireOps: migrate/retire/drain/resume/topology round-trip
// through the wire protocol, including the ErrDraining sentinel.
func TestElasticWireOps(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	f := startReplNode(t, e, Options{Follower: true})

	m := MustNew(e, Options{SyncReplicas: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(m, ln)
	defer func() {
		srv.Close()
		m.Close()
	}()
	cl := dialAddr(t, srv.Addr())

	if err := cl.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Migrate(bg, f.srv.Addr())
	if err != nil {
		t.Fatalf("migrate op: %v", err)
	}
	if st.Steps != 1 || st.Role != RoleFollower {
		t.Fatalf("migrate ack: %+v", st)
	}
	ti, err := cl.Topology(bg)
	if err != nil {
		t.Fatal(err)
	}
	if ti.Role != RolePrimary || ti.Draining || len(ti.Replicas) != 1 {
		t.Fatalf("topology: %+v", ti)
	}
	if err := cl.Drain(bg); err != nil {
		t.Fatalf("drain op: %v", err)
	}
	if err := cl.Request(bg, act("b")); !errors.Is(err, ErrDraining) {
		t.Fatalf("request on drained server: want ErrDraining across the wire, got %v", err)
	}
	if ti, err = cl.Topology(bg); err != nil || !ti.Draining {
		t.Fatalf("topology while draining: %+v err=%v", ti, err)
	}
	if err := cl.Resume(bg); err != nil {
		t.Fatalf("resume op: %v", err)
	}
	if err := cl.Request(bg, act("b")); err != nil {
		t.Fatalf("request after resume: %v", err)
	}
	if err := cl.Retire(bg, f.srv.Addr()); err != nil {
		t.Fatalf("retire op: %v", err)
	}
	if ti, err = cl.Topology(bg); err != nil || len(ti.Replicas) != 0 {
		t.Fatalf("topology after retire: %+v err=%v", ti, err)
	}
}

// dialAddr dials a raw address with cleanup.
func dialAddr(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestElasticOpsOnNonElasticCoordinator: a server fronting a coordinator
// without the Elastic surface answers the ops with a clean error.
func TestElasticOpsOnNonElasticCoordinator(t *testing.T) {
	// A Manager IS elastic; hide the optional interfaces behind a shim.
	m := MustNew(parse.MustParse("(a | b)*"), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewCoordServer(bareCoordinator{Coordinator: CoordinatorFor(m)}, ln)
	defer func() {
		srv.Close()
		m.Close()
	}()
	cl := dialAddr(t, srv.Addr())
	if err := cl.Drain(bg); err == nil {
		t.Fatal("drain on a non-elastic coordinator should fail")
	}
	if _, err := cl.Topology(bg); err == nil {
		t.Fatal("topology on a non-elastic coordinator should fail")
	}
	// The core protocol still works through the shim.
	if err := cl.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
}

// bareCoordinator embeds only the Coordinator surface, hiding the
// Elastic/ReplicaTarget/BatchRequester extensions of the wrapped value.
type bareCoordinator struct{ Coordinator }
