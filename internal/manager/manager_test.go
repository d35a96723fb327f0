package manager

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/parse"
	"repro/internal/state"
	"repro/internal/storage"
)

var bg = context.Background()

func newMgr(t *testing.T, src string) *Manager {
	t.Helper()
	m := MustNew(parse.MustParse(src), Options{})
	t.Cleanup(func() { m.Close() })
	return m
}

func act(s string) expr.Action {
	a, err := expr.ParseActionString(s)
	if err != nil {
		panic(err)
	}
	return a
}

// TestOneTransitionPerAdmission: with no subscriptions to re-evaluate,
// every admission — granted or denied, on the single, group-committed,
// burst and ask/confirm paths, and on a follower applying a replicated
// frame — costs exactly one τ̂ evaluation (one memo lookup: a hit, or a
// miss and the term walk behind it).
func TestOneTransitionPerAdmission(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	lookups := func(m *Manager) uint64 {
		cs, _ := m.CacheStats()
		return cs.MemoHits + cs.MemoMisses
	}
	request := func(m *Manager, a expr.Action) error { return m.Request(bg, a) }
	for _, path := range []struct {
		name string
		opts Options
		do   func(*Manager, expr.Action) error
	}{
		{"single", Options{}, request},
		{"batched", Options{BatchMaxSize: 8}, request},
		{"burst", Options{}, func(m *Manager, a expr.Action) error { return m.RequestMany(bg, []expr.Action{a})[0] }},
		{"ask-confirm", Options{}, func(m *Manager, a expr.Action) error {
			tk, err := m.Ask(bg, a)
			if err != nil {
				return err
			}
			return m.Confirm(tk)
		}},
	} {
		m := MustNew(e, path.opts)
		before, granted, denied := lookups(m), 0, 0
		for i := 0; i < 5; i++ {
			for _, s := range []string{"a", "a", "b", "b"} { // grant, deny, grant, deny
				switch err := path.do(m, act(s)); {
				case err == nil:
					granted++
				case errors.Is(err, ErrDenied):
					denied++
				default:
					t.Fatalf("%s: %s: %v", path.name, s, err)
				}
			}
		}
		if granted != 10 || denied != 10 {
			t.Fatalf("%s: %d granted, %d denied, want 10 and 10", path.name, granted, denied)
		}
		if got := lookups(m) - before; got != uint64(granted+denied) {
			t.Errorf("%s: %d transitions evaluated for %d admissions", path.name, got, granted+denied)
		}
		m.Close()
	}

	f := MustNew(e, Options{Follower: true})
	defer f.Close()
	before := lookups(f)
	for _, frame := range []ReplFrame{
		{Base: 0, Actions: []expr.Action{act("a")}},
		{Base: 1, Actions: []expr.Action{act("b"), act("a"), act("b")}},
	} {
		if _, err := f.ApplyReplicated(frame); err != nil {
			t.Fatalf("follower frame at %d: %v", frame.Base, err)
		}
	}
	if got := lookups(f) - before; got != 4 {
		t.Errorf("follower: %d transitions evaluated for 4 replicated actions", got)
	}
}

// TestRecurringRequestDoesNotAllocate: on an unreplicated, unlogged manager
// whose states recur, a granted Request allocates nothing and a denied one
// only its error value — with and without a metrics registry attached, so
// instrumentation costs the hot path no allocation either. The heap such a
// manager feeds is what made admit_uniform's runs differ from one another:
// at 2.4 M requests a second 60 B per request is 140 MB/s of fresh pages,
// and the cost of faulting those in is the host's, not the program's.
// Under group commit a lone Request leads its own group inline and
// allocates its queue entry, the writer, and nothing else.
func TestRecurringRequestDoesNotAllocate(t *testing.T) {
	for name, c := range map[string]struct {
		opts   Options
		allocs float64 // per request beyond a denial's error value
	}{
		"plain":   {opts: Options{}},
		"metrics": {opts: Options{Metrics: obs.NewRegistry()}},
		"batched": {opts: Options{BatchMaxSize: 64}, allocs: 1},
	} {
		t.Run(name, func(t *testing.T) {
			m := MustNew(parse.MustParse("(a - b)*"), c.opts)
			defer m.Close()
			a, b := act("a"), act("b")
			round := func() {
				if m.Request(bg, a) != nil || m.Request(bg, b) != nil {
					t.Fatal("a, b refused")
				}
			}
			round() // the two memo misses
			if n := testing.AllocsPerRun(100, round); n > 2*c.allocs {
				t.Errorf("two granted requests allocate %v times, want at most %v", n, 2*c.allocs)
			}
			if n := testing.AllocsPerRun(100, func() {
				if !errors.Is(m.Request(bg, b), ErrDenied) {
					t.Fatal("b granted out of turn")
				}
			}); n > 1+c.allocs {
				t.Errorf("a denied request allocates %v times, want at most %v", n, 1+c.allocs)
			}
		})
	}
}

// TestBatchedNewStartsNoGoroutine: group commit needs no goroutine of
// its own; a batched manager without replicas starts none in New.
func TestBatchedNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m := MustNew(parse.MustParse("(a | b)*"), Options{BatchMaxSize: 64})
	after := runtime.NumGoroutine()
	m.Close()
	if after > before {
		t.Errorf("New started %d goroutines", after-before)
	}
}

// TestStaleSuccessorNeverReachesTheLog: a reservation whose successor was
// computed on an engine the manager no longer runs (a snapshot install
// replaced it) is recomputed by Confirm; if the state no longer permits
// the action the region is freed; and a commit handed a stale successor
// is refused before the log is written, so no sequence number is reused.
func TestStaleSuccessorNeverReachesTheLog(t *testing.T) {
	e := parse.MustParse("(a - b)*")
	store := storage.NewMemory()
	m := MustNew(e, Options{Storage: store})
	defer m.Close()
	swapEngine := func(word ...string) {
		en := state.MustEngine(e)
		for _, s := range word {
			if err := en.Step(act(s)); err != nil {
				t.Fatal(err)
			}
		}
		m.mu.Lock()
		m.en = en
		m.mu.Unlock()
	}

	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	stale := m.reservedNxt
	swapEngine() // same state, another engine: the held successor is stale
	if err := m.Confirm(tk); err != nil {
		t.Fatalf("confirm after the engine was replaced: %v", err)
	}
	if m.Steps() != 1 || m.reservedNxt.Permissible() {
		t.Fatalf("steps %d, successor still held %t", m.Steps(), m.reservedNxt.Permissible())
	}

	logBytes := mustLogBytes(t, store)
	m.mu.Lock()
	err = m.stageLocked(act("a"), stale)
	m.mu.Unlock()
	if !errors.Is(err, state.ErrStaleSuccessor) {
		t.Fatalf("stale commit: %v, want ErrStaleSuccessor", err)
	}
	if got := mustLogBytes(t, store); got != logBytes || m.Steps() != 1 {
		t.Fatalf("refused commit left a trace: log %d bytes (had %d), steps %d", got, logBytes, m.Steps())
	}

	tk, err = m.Ask(bg, act("b"))
	if err != nil {
		t.Fatal(err)
	}
	swapEngine() // back at the start: b is no longer permissible
	if err := m.Confirm(tk); !errors.Is(err, ErrDenied) {
		t.Fatalf("confirm of an action the state no longer permits: %v, want ErrDenied", err)
	}
	if got := mustLogBytes(t, store); got != logBytes {
		t.Fatalf("denied confirm wrote to the log: %d bytes, had %d", got, logBytes)
	}
	if err := m.Request(bg, act("a")); err != nil { // would block forever on a leaked reservation
		t.Fatalf("request after the denied confirm: %v", err)
	}
}

// TestCoordinationProtocol (E13): the four-step ask/reply/execute/confirm
// cycle of Fig 10.
func TestCoordinationProtocol(t *testing.T) {
	m := newMgr(t, "a - b")

	// Step 1+2: ask, positive reply.
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatalf("ask a: %v", err)
	}
	// Step 3 happens at the client. Step 4+5: confirm, state transition.
	if err := m.Confirm(tk); err != nil {
		t.Fatalf("confirm: %v", err)
	}
	// A non-permitted action gets a negative reply.
	if _, err := m.Ask(bg, act("a")); !errors.Is(err, ErrDenied) {
		t.Fatalf("second a: got %v want ErrDenied", err)
	}
	tk, err = m.Ask(bg, act("b"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatal(err)
	}
	if !m.Final() {
		t.Error("word a b should be complete")
	}
	st := m.Stats()
	if st.Grants != 2 || st.Denies != 1 || st.Confirms != 2 {
		t.Errorf("stats: %+v", st)
	}
}

// TestCriticalRegionBlocks: between reply and confirm the manager is in
// a critical region; a concurrent ask waits.
func TestCriticalRegionBlocks(t *testing.T) {
	m := newMgr(t, "a || b")
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	askDone := make(chan error, 1)
	go func() {
		_, err := m.Ask(bg, act("b"))
		askDone <- err
	}()
	select {
	case <-askDone:
		t.Fatal("second ask should block while the critical region is held")
	case <-time.After(50 * time.Millisecond):
	}
	if err := m.Confirm(tk); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-askDone:
		if err != nil {
			t.Fatalf("second ask after confirm: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second ask never unblocked")
	}
}

// TestAbortReleases: an abort releases the critical region without a
// transition.
func TestAbortReleases(t *testing.T) {
	m := newMgr(t, "a - b")
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(tk); err != nil {
		t.Fatal(err)
	}
	// The action was not executed: a is still first.
	if m.Try(act("b")) {
		t.Error("b must not be permitted before a")
	}
	if !m.Try(act("a")) {
		t.Error("a should still be permitted after the abort")
	}
	if err := m.Confirm(tk); !errors.Is(err, ErrUnknownTicket) {
		t.Errorf("confirm after abort: got %v", err)
	}
}

// TestReservationTimeout: a worklist handler that dies between reply and
// confirm (the PC-switched-off scenario of Sec 7) would block the
// manager forever; the reservation timeout recovers.
func TestReservationTimeout(t *testing.T) {
	m := MustNew(parse.MustParse("a || b"), Options{ReservationTimeout: 30 * time.Millisecond})
	defer m.Close()
	tk, err := m.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	// The client dies; a second client's ask succeeds after the timeout.
	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	start := time.Now()
	tk2, err := m.Ask(ctx, act("b"))
	if err != nil {
		t.Fatalf("ask after timeout: %v", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Error("second ask should have waited for the timeout")
	}
	if err := m.Confirm(tk); !errors.Is(err, ErrUnknownTicket) {
		t.Errorf("late confirm of expired ticket: got %v", err)
	}
	if err := m.Confirm(tk2); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRequests: many clients race atomic requests; exactly the
// permitted number commits.
func TestConcurrentRequests(t *testing.T) {
	m := MustNew(paper.Fig6CapacityRestrictionN(3), Options{})
	defer m.Close()
	const clients = 10
	var granted, denied int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := m.Request(bg, paper.CallAct(paper.Patient(i), paper.ExamSono))
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				granted++
			} else if errors.Is(err, ErrDenied) {
				denied++
			} else {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if granted != 3 || denied != 7 {
		t.Errorf("capacity 3: granted=%d denied=%d", granted, denied)
	}
}

// TestSubscriptionFlips (E14): informs arrive exactly on permissible ↔
// non-permissible flips, the worklist-update mechanism of Fig 10.
func TestSubscriptionFlips(t *testing.T) {
	m := MustNew(paper.Fig3PatientConstraint(), Options{})
	defer m.Close()
	p := paper.Patient(1)
	callEndo := paper.CallAct(p, paper.ExamEndo)

	sub := m.Subscribe(callEndo)
	// Initial status: permissible.
	inf := <-sub.C
	if !inf.Permissible {
		t.Fatal("endo call should initially be permissible")
	}

	// Starting the sono examination flips it off...
	if err := m.Request(bg, paper.CallAct(p, paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	inf = <-sub.C
	if inf.Permissible {
		t.Fatal("endo call should flip to non-permissible")
	}

	// ...and completing the sono flips it back on.
	if err := m.Request(bg, paper.PerformAct(p, paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	inf = <-sub.C
	if !inf.Permissible {
		t.Fatal("endo call should flip back after perform")
	}

	// Unrelated transitions produce no informs.
	if err := m.Request(bg, paper.PrepareAct(paper.Patient(2), paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	select {
	case inf := <-sub.C:
		t.Fatalf("unexpected inform %+v", inf)
	case <-time.After(30 * time.Millisecond):
	}
	m.Unsubscribe(sub)
	if _, ok := <-sub.C; ok {
		t.Error("channel should be closed after unsubscribe")
	}
}

// TestRecovery (E16): a manager restarted on its action log resumes in
// exactly the state the confirmed actions imply.
func TestRecovery(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "actions.log")
	e := paper.Fig3PatientConstraint()
	p := paper.Patient(1)

	m1 := MustNew(e, Options{LogPath: logPath})
	if err := m1.Request(bg, paper.CallAct(p, paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	m1.Close() // crash/restart boundary

	m2, err := New(e, Options{LogPath: logPath})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// The recovered state still knows patient 1 is mid-examination.
	if m2.Try(paper.CallAct(p, paper.ExamEndo)) {
		t.Error("recovered manager must still block the second call")
	}
	if !m2.Try(paper.PerformAct(p, paper.ExamSono)) {
		t.Error("recovered manager must allow the pending perform")
	}
	if m2.Steps() != 1 {
		t.Errorf("recovered steps: got %d want 1", m2.Steps())
	}
}

// TestRecoveryRejectsCorruptHistory: replaying a log that the expression
// cannot accept fails loudly instead of silently diverging.
func TestRecoveryRejectsCorruptHistory(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "actions.log")
	m1 := MustNew(parse.MustParse("a - b"), Options{LogPath: logPath})
	if err := m1.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	m1.Close()
	// A different (incompatible) expression cannot replay this log.
	if _, err := New(parse.MustParse("b - a"), Options{LogPath: logPath}); err == nil {
		t.Error("expected recovery failure for incompatible log")
	}
}

func TestManagerClose(t *testing.T) {
	m := MustNew(parse.MustParse("a"), Options{})
	sub := m.Subscribe(act("a"))
	<-sub.C
	m.Close()
	if _, ok := <-sub.C; ok {
		t.Error("subscription should close with the manager")
	}
	if _, err := m.Ask(bg, act("a")); !errors.Is(err, ErrClosed) {
		t.Errorf("ask after close: %v", err)
	}
	if err := m.Request(bg, act("a")); !errors.Is(err, ErrClosed) {
		t.Errorf("request after close: %v", err)
	}
	if m.Try(act("a")) {
		t.Error("try after close should be false")
	}
	if err := m.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestNonConcreteActionRejected: abstract actions can never execute.
func TestNonConcreteActionRejected(t *testing.T) {
	m := newMgr(t, "any p: x(p)")
	if m.Try(expr.Act("x", expr.Prm("p"))) {
		t.Error("non-concrete action must not be permissible")
	}
}
