package manager

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/paper"
	"repro/internal/parse"
)

// TestMultiManagerSplit (E17): a top-level coupling is partitioned into
// one manager per operand.
func TestMultiManagerSplit(t *testing.T) {
	r, err := NewRouter(paper.Fig7Coupled(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Managers()) != 2 {
		t.Fatalf("managers: got %d want 2", len(r.Managers()))
	}
	// prepare is only in the patient constraint's alphabet.
	if got := r.Route(paper.PrepareAct("p1", paper.ExamSono)); len(got) != 1 || got[0] != 0 {
		t.Errorf("route(prepare): %v", got)
	}
	// call is in both alphabets.
	if got := r.Route(paper.CallAct("p1", paper.ExamSono)); len(got) != 2 {
		t.Errorf("route(call): %v", got)
	}
	// unknown actions route nowhere.
	if got := r.Route(act("zzz")); got != nil {
		t.Errorf("route(zzz): %v", got)
	}
}

// TestMultiManagerConjunction: an action is permitted iff every involved
// manager permits it — the distributed equivalent of Fig 7's coupling.
func TestMultiManagerConjunction(t *testing.T) {
	r, err := NewRouter(paper.Fig7Coupled(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Fill the sono department to capacity with three patients.
	for i := 1; i <= 3; i++ {
		if err := r.Request(bg, paper.CallAct(paper.Patient(i), paper.ExamSono)); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	// Patient 4 is personally free, but the capacity manager refuses —
	// and the patient-constraint manager's reservation must be rolled
	// back so patient 4 can still go elsewhere.
	if err := r.Request(bg, paper.CallAct(paper.Patient(4), paper.ExamSono)); !errors.Is(err, ErrDenied) {
		t.Fatalf("capacity breach: got %v", err)
	}
	if err := r.Request(bg, paper.CallAct(paper.Patient(4), paper.ExamEndo)); err != nil {
		t.Fatalf("endo call after rollback: %v", err)
	}
	// Patient 1 is busy: the patient manager refuses (first in order).
	if err := r.Request(bg, paper.CallAct(paper.Patient(1), paper.ExamEndo)); !errors.Is(err, ErrDenied) {
		t.Fatalf("busy patient: got %v", err)
	}
	if !r.Try(paper.PerformAct(paper.Patient(1), paper.ExamSono)) {
		t.Error("perform should be permitted")
	}
	if r.Try(act("zzz")) {
		t.Error("unrouted action must not be permitted")
	}
}

// TestMultiManagerConcurrent: concurrent distributed requests respect
// the global capacity without deadlocking.
func TestMultiManagerConcurrent(t *testing.T) {
	r, err := NewRouter(paper.Fig7Coupled(), Options{ReservationTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const clients = 8
	var granted int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := r.Request(bg, paper.CallAct(paper.Patient(i), paper.ExamSono))
			if err == nil {
				mu.Lock()
				granted++
				mu.Unlock()
			} else if !errors.Is(err, ErrDenied) {
				t.Errorf("unexpected: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if granted != 3 {
		t.Errorf("granted: got %d want 3 (capacity)", granted)
	}
}

// TestMultiManagerSubscribe: aggregated informs reflect the conjunction
// of the involved managers.
func TestMultiManagerSubscribe(t *testing.T) {
	r, err := NewRouter(paper.Fig7Coupled(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p := paper.Patient(1)
	sub := r.Subscribe(paper.CallAct(p, paper.ExamEndo))
	waitInform := func(want bool) {
		t.Helper()
		deadline := time.After(2 * time.Second)
		for {
			select {
			case inf := <-sub.C:
				if inf.Permissible == want {
					return
				}
			case <-deadline:
				t.Fatalf("inform %v timed out", want)
			}
		}
	}
	waitInform(true)
	if err := r.Request(bg, paper.CallAct(p, paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	waitInform(false)
	if err := r.Request(bg, paper.PerformAct(p, paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	waitInform(true)
	r.Unsubscribe(sub)
}

// TestRouterSingleExpression: a non-coupled expression yields one
// manager and still works.
func TestRouterSingleExpression(t *testing.T) {
	r, err := NewRouter(parse.MustParse("a - b"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if len(r.Managers()) != 1 {
		t.Fatalf("managers: %d", len(r.Managers()))
	}
	if err := r.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.Request(bg, act("b")); err != nil {
		t.Fatal(err)
	}
	if !r.Final() {
		t.Error("should be final")
	}
}

// TestNameIndexMatchesScan: the name-keyed routing index agrees with a
// naive scan over every alphabet, for actions in and out of the coupling.
func TestNameIndexMatchesScan(t *testing.T) {
	r, err := NewRouter(paper.Fig7Coupled(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	probes := []expr.Action{
		paper.PrepareAct("p1", paper.ExamSono),
		paper.CallAct("p1", paper.ExamSono),
		paper.PerformAct("p2", paper.ExamEndo),
		expr.ConcreteAct("inform", "p1", paper.ExamSono),
		expr.ConcreteAct("unknown", "p1"),
		expr.ConcreteAct("call"), // right name, wrong arity
	}
	for _, a := range probes {
		got := r.Route(a)
		var want []int
		for i, al := range r.alphas {
			if al.Contains(a) {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("route(%s): got %v want %v", a, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("route(%s): got %v want %v", a, got, want)
			}
		}
	}
}

// BenchmarkRouterRoute measures routing cost on a many-operand coupling
// (the hot path of every distributed grant).
func BenchmarkRouterRoute(b *testing.B) {
	// 8 operands with disjoint private actions plus one shared name.
	src := ""
	for i := 0; i < 8; i++ {
		if i > 0 {
			src += " @ "
		}
		src += "(x" + string(rune('a'+i)) + " | shared)*"
	}
	r, err := NewRouter(parse.MustParse(src), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	single := expr.ConcreteAct("xc")
	shared := expr.ConcreteAct("shared")
	b.Run("single-shard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := r.Route(single); len(got) != 1 {
				b.Fatalf("route: %v", got)
			}
		}
	})
	b.Run("all-shards", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := r.Route(shared); len(got) != 8 {
				b.Fatalf("route: %v", got)
			}
		}
	})
}

// TestRouterSubscribeDeliversLatestStatus: a subscriber that stops
// draining its aggregated channel loses intermediate flips, but the last
// inform it reads is the current status. The channel is filled to
// capacity, one more flip is forwarded into the full channel, and
// unsubscribing closes the channel.
func TestRouterSubscribeDeliversLatestStatus(t *testing.T) {
	r, err := NewRouter(parse.MustParse("(a - b)*"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b := act("b")
	agg := r.Subscribe(b)
	steps := 0
	flip := func() {
		t.Helper()
		if err := r.Request(bg, []expr.Action{act("a"), b}[steps%2]); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	// The initial inform and one per flip, forwarded asynchronously.
	wait := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(agg.C) < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d informs pending, want %d", len(agg.C), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for wait(1); len(agg.C) < cap(agg.C); wait(steps + 1) {
		flip()
	}
	flip()
	// Let the forwarder take the last flip off the manager's channel and
	// offer it to the full agg.C before anything is drained. Draining at
	// once would free a slot first, and a forwarder that drops the newest
	// inform would then deliver it anyway: the test would pass against it.
	for _, p := range agg.parts {
		for len(p.sub.C) > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond)
	r.Unsubscribe(agg)
	var last Inform
	for inf := range agg.C {
		last = inf
	}
	if want := r.Try(b); last.Permissible != want {
		t.Fatalf("after %d flips the last inform says permissible=%t, Try says %t", steps, last.Permissible, want)
	}
}
