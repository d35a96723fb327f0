package manager

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/storage"
)

// TestBatchedRequestConcurrent hammers the group-commit path with many
// concurrent requesters and checks that every confirm is applied exactly
// once and the log holds the full history in confirm order.
func TestBatchedRequestConcurrent(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "batch.log")
	e := parse.MustParse("(a | b)*")
	m := MustNew(e, Options{LogPath: logPath, BatchMaxSize: 16, BatchMaxDelay: time.Millisecond})
	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a := expr.ConcreteAct("a")
			if c%2 == 1 {
				a = expr.ConcreteAct("b")
			}
			for i := 0; i < perClient; i++ {
				if err := m.Request(context.Background(), a); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got, want := m.Steps(), clients*perClient; got != want {
		t.Fatalf("Steps = %d, want %d", got, want)
	}
	st := m.Stats()
	if st.Confirms != clients*perClient || st.Transits != clients*perClient {
		t.Fatalf("stats = %+v, want %d confirms/transits", st, clients*perClient)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The log must replay to the identical state.
	m2 := MustNew(e, Options{LogPath: logPath})
	defer m2.Close()
	if got, want := m2.Steps(), clients*perClient; got != want {
		t.Fatalf("recovered Steps = %d, want %d", got, want)
	}
}

// TestBatchedOrderingWithinRequestMany drives a strictly alternating
// expression through one RequestMany burst: the actions must be applied
// in submission order (any reordering or double-apply would be denied).
func TestBatchedOrderingWithinRequestMany(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	for _, batched := range []bool{false, true} {
		opts := Options{}
		if batched {
			opts.BatchMaxSize = 8
		}
		m := MustNew(e, opts)
		var burst []expr.Action
		for i := 0; i < 20; i++ {
			if i%2 == 0 {
				burst = append(burst, expr.ConcreteAct("a"))
			} else {
				burst = append(burst, expr.ConcreteAct("b"))
			}
		}
		for i, err := range m.RequestMany(context.Background(), burst) {
			if err != nil {
				t.Fatalf("batched=%v action %d: %v", batched, i, err)
			}
		}
		if got := m.Steps(); got != len(burst) {
			t.Fatalf("batched=%v Steps = %d, want %d", batched, got, len(burst))
		}
		m.Close()
	}
}

// TestBatchedDenialIsolated checks that a denied action inside a batch
// fails alone: the permissible members of the same batch still commit.
func TestBatchedDenialIsolated(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	m := MustNew(e, Options{BatchMaxSize: 8})
	defer m.Close()
	errs := m.RequestMany(context.Background(), []expr.Action{
		expr.ConcreteAct("a"),
		expr.ConcreteAct("a"), // denied: b is due
		expr.ConcreteAct("b"),
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("permissible actions failed: %v", errs)
	}
	if !errors.Is(errs[1], ErrDenied) {
		t.Fatalf("errs[1] = %v, want ErrDenied", errs[1])
	}
	if m.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", m.Steps())
	}
}

// TestBatchedCloseInFlight closes the manager under concurrent batched
// load: every request must settle (commit or ErrClosed), nothing hangs.
func TestBatchedCloseInFlight(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	m := MustNew(e, Options{BatchMaxSize: 4, BatchMaxDelay: 100 * time.Microsecond})
	const clients = 16
	results := make(chan error, clients*20)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				results <- m.Request(context.Background(), expr.ConcreteAct("a"))
			}
		}()
	}
	// Close once load is demonstrably in flight (some commits landed,
	// more requests still running) — a condition, not a timing guess.
	for m.Steps() < 5 {
		runtime.Gosched()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	committed := 0
	for err := range results {
		switch {
		case err == nil:
			committed++
		case errors.Is(err, ErrClosed):
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if committed != m.Steps() {
		t.Fatalf("%d requests reported success, engine has %d steps", committed, m.Steps())
	}
}

// TestBatchWaitsForReservation: an outstanding ask/confirm reservation
// excludes a whole batch until settled, then the batch commits.
func TestBatchWaitsForReservation(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	m := MustNew(e, Options{BatchMaxSize: 8})
	defer m.Close()
	tk, err := m.Ask(context.Background(), expr.ConcreteAct("a"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Request(context.Background(), expr.ConcreteAct("b")) }()
	select {
	case err := <-done:
		t.Fatalf("batched request crossed the critical region: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", m.Steps())
	}
}

// TestBatchedContextCancelWhileReserved: a batched request whose context
// expires while an ask/confirm reservation blocks the batch fails with
// the context error and commits nothing; the batch pipeline stays live.
func TestBatchedContextCancelWhileReserved(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	m := MustNew(e, Options{BatchMaxSize: 8})
	defer m.Close()
	tk, err := m.Ask(context.Background(), expr.ConcreteAct("a"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := m.Request(ctx, expr.ConcreteAct("b")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if m.Steps() != 0 {
		t.Fatalf("Steps = %d, want 0", m.Steps())
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatal(err)
	}
	if err := m.Request(context.Background(), expr.ConcreteAct("b")); err != nil {
		t.Fatal(err)
	}
	if m.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", m.Steps())
	}
}

// TestBatchedContextCancelQueueFull: when the commit queue is backed up
// behind a parked reservation, a request whose context is already dead
// must fail with the context error instead of blocking on the queue.
func TestBatchedContextCancelQueueFull(t *testing.T) {
	e := parse.MustParse("(a | b)*")
	m := MustNew(e, Options{BatchMaxSize: 2})
	defer m.Close()
	tk, err := m.Ask(context.Background(), expr.ConcreteAct("a"))
	if err != nil {
		t.Fatal(err)
	}
	// Fill the batch in flight and the queue behind it.
	const backlog = 6
	var wg sync.WaitGroup
	for i := 0; i < backlog; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := m.Request(context.Background(), expr.ConcreteAct("b")); err != nil {
				t.Error(err)
			}
		}()
	}
	// Wait until every request is admitted into the batch queue (the
	// committer is parked on the reservation) — a condition, not a
	// timing guess.
	for m.batch.pending.Load() < backlog {
		runtime.Gosched()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() { done <- m.Request(ctx, expr.ConcreteAct("b")) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request with dead context blocked on the full queue")
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got, want := m.Steps(), backlog+1; got != want {
		t.Fatalf("Steps = %d, want %d", got, want)
	}
}

// TestBatchedSubscriptionNetEffect: subscribers observe the net status
// after a batch (informs may coalesce, but the latest status must be
// delivered).
func TestBatchedSubscriptionNetEffect(t *testing.T) {
	e := parse.MustParse("a - b")
	m := MustNew(e, Options{BatchMaxSize: 8})
	defer m.Close()
	sub := m.Subscribe(expr.ConcreteAct("b"))
	if inf := <-sub.C; inf.Permissible {
		t.Fatal("b should start impermissible")
	}
	if err := m.Request(context.Background(), expr.ConcreteAct("a")); err != nil {
		t.Fatal(err)
	}
	select {
	case inf := <-sub.C:
		if !inf.Permissible {
			t.Fatal("b should have become permissible")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no inform after batch commit")
	}
}

// TestBatchedRecoveryEquivalence replays a batched run's log through a
// fresh one-at-a-time manager and compares the exact engine state — the
// determinism claim behind group commit.
func TestBatchedRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	workload := func(m *Manager) {
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					p := fmt.Sprintf("p%d_%d", c, i)
					if err := m.Request(context.Background(), expr.ConcreteAct("call", p)); err != nil {
						t.Error(err)
						return
					}
					if err := m.Request(context.Background(), expr.ConcreteAct("perform", p)); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}
	logPath := filepath.Join(dir, "b.log")
	m := MustNew(e, Options{LogPath: logPath, BatchMaxSize: 8, BatchMaxDelay: 500 * time.Microsecond, SyncWrites: true})
	workload(m)
	key := m.en.StateKey()
	steps := m.Steps()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Recover without batching: replay must land on the identical state.
	m2 := MustNew(e, Options{LogPath: logPath})
	defer m2.Close()
	if m2.Steps() != steps {
		t.Fatalf("recovered %d steps, want %d", m2.Steps(), steps)
	}
	if got := m2.en.StateKey(); got != key {
		t.Fatalf("recovered state differs:\n got %s\nwant %s", got, key)
	}
}

// countingStore counts the durability calls a manager makes on its
// storage backend.
type countingStore struct {
	storage.Backend
	syncs, commits, buffers atomic.Int64
}

func (s *countingStore) Sync() error {
	s.syncs.Add(1)
	return s.Backend.Sync()
}

func (s *countingStore) Commit(sync bool) error {
	if sync {
		s.commits.Add(1)
	}
	return s.Backend.Commit(sync)
}

func (s *countingStore) Buffer(e storage.Entry) error {
	s.buffers.Add(1)
	return s.Backend.Buffer(e)
}

// TestOneDurabilityPointPerGroupCommit counts fsyncs under SyncWrites:
// one Sync per unbatched Request, one Commit(true) for a whole unbatched
// RequestMany, and under group commit one Commit(true) per batch the
// manager reports — however the concurrent requests fall into batches —
// with a full batch when the queue is full.
func TestOneDurabilityPointPerGroupCommit(t *testing.T) {
	const n, clients = 64, 8
	a := expr.ConcreteAct("a")
	newManager := func(opts Options) (*Manager, *countingStore) {
		store := &countingStore{Backend: storage.NewMemory()}
		opts.Storage, opts.SyncWrites = store, true
		m := MustNew(parse.MustParse("(a | b)*"), opts)
		t.Cleanup(func() { m.Close() })
		return m, store
	}
	type counts struct{ syncs, commits, buffers int64 }
	check := func(what string, s *countingStore, want counts) {
		t.Helper()
		if got := (counts{s.syncs.Load(), s.commits.Load(), s.buffers.Load()}); got != want {
			t.Errorf("%s: Sync, Commit(true), Buffer calls %+v, want %+v", what, got, want)
		}
	}

	m, store := newManager(Options{})
	for i := 0; i < n; i++ {
		if err := m.Request(bg, a); err != nil {
			t.Fatal(err)
		}
	}
	check("sequential requests", store, counts{syncs: n})

	m, store = newManager(Options{})
	acts := make([]expr.Action, n)
	for i := range acts {
		acts[i] = a
	}
	for i, err := range m.RequestMany(bg, acts) {
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	check("one RequestMany", store, counts{commits: 1, buffers: n})

	reg := obs.NewRegistry()
	m, store = newManager(Options{Metrics: reg, BatchMaxSize: 16, BatchMaxDelay: 100 * time.Microsecond})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/clients; i++ {
				if err := m.Request(bg, a); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h := reg.Histogram(mBatchSize).Snapshot()
	if h.Sum != n {
		t.Fatalf("group commits applied %d actions, want %d", h.Sum, n)
	}
	check("group commit", store, counts{commits: int64(h.Count), buffers: n})

	// Group commit coalesces: a burst queued behind an ask/confirm
	// reservation fills the queue, and once the reservation goes the next
	// batch takes BatchMaxSize actions at once.
	const size = 16
	reg = obs.NewRegistry()
	m, store = newManager(Options{Metrics: reg, BatchMaxSize: size})
	tk, err := m.Ask(bg, a)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []error, 1)
	go func() { done <- m.RequestMany(bg, acts[:2*size]) }()
	// The committer holds at most one batch of the burst, so at least
	// size actions are left to fill the queue.
	for len(m.batch.ch) < cap(m.batch.ch) {
		runtime.Gosched()
	}
	if err := m.Abort(tk); err != nil {
		t.Fatal(err)
	}
	for i, err := range <-done {
		if err != nil {
			t.Fatalf("held burst slot %d: %v", i, err)
		}
	}
	if h = reg.Histogram(mBatchSize).Snapshot(); h.Max != size {
		t.Errorf("held burst: largest group commit %d actions, want %d", h.Max, size)
	}
	check("held burst", store, counts{commits: int64(h.Count), buffers: 2 * size})
}
