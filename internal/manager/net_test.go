package manager

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/paper"
	"repro/internal/parse"
)

// startServer spins up a manager server on a loopback listener.
func startServer(t *testing.T, src string) (*Server, *Manager) {
	t.Helper()
	m := MustNew(parse.MustParse(src), Options{ReservationTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, ln)
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	return s, m
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCoordinationProtocolTCP (E13): the full Fig 10 cycle over the wire.
func TestCoordinationProtocolTCP(t *testing.T) {
	s, _ := startServer(t, "a - b")
	c := dial(t, s)

	tk, err := c.Ask(bg, act("a"))
	if err != nil {
		t.Fatalf("ask: %v", err)
	}
	if err := c.Confirm(bg, tk); err != nil {
		t.Fatalf("confirm: %v", err)
	}
	// Negative reply for an impossible action.
	if _, err := c.Ask(bg, act("a")); err == nil || !strings.Contains(err.Error(), "not permitted") {
		t.Fatalf("expected denial, got %v", err)
	}
	ok, err := c.Try(bg, act("b"))
	if err != nil || !ok {
		t.Fatalf("try b: %v %v", ok, err)
	}
	if err := c.Request(bg, act("b")); err != nil {
		t.Fatalf("request b: %v", err)
	}
	fin, err := c.Final(bg)
	if err != nil || !fin {
		t.Fatalf("final: %v %v", fin, err)
	}
}

// TestAbortTCP: abort over the wire releases the region.
func TestAbortTCP(t *testing.T) {
	s, _ := startServer(t, "a - b")
	c := dial(t, s)
	tk, err := c.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Abort(bg, tk); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Try(bg, act("a"))
	if err != nil || !ok {
		t.Fatalf("a should still be permitted: %v %v", ok, err)
	}
}

// TestSubscriptionTCP (E14): informs flow to remote subscribers.
func TestSubscriptionTCP(t *testing.T) {
	m := MustNew(paper.Fig3PatientConstraint(), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, ln)
	defer func() { s.Close(); m.Close() }()

	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := paper.Patient(1)
	sub, err := c.Subscribe(bg, paper.CallAct(p, paper.ExamEndo))
	if err != nil {
		t.Fatal(err)
	}
	waitInform := func(want bool) {
		t.Helper()
		select {
		case inf := <-sub.C:
			if inf.Permissible != want {
				t.Fatalf("inform: got %v want %v", inf.Permissible, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("inform timed out")
		}
	}
	waitInform(true) // initial status

	if err := c.Request(bg, paper.CallAct(p, paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	waitInform(false)

	if err := c.Request(bg, paper.PerformAct(p, paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	waitInform(true)

	if err := c.Unsubscribe(bg, sub); err != nil {
		t.Fatal(err)
	}
}

// TestTwoClientsCompete: two remote worklist handlers compete for
// mutually exclusive actions; one wins, the other is denied, and after
// the perform the loser's action becomes available (the intro scenario
// distributed).
func TestTwoClientsCompete(t *testing.T) {
	m := MustNew(paper.Fig3PatientConstraint(), Options{ReservationTimeout: 2 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, ln)
	defer func() { s.Close(); m.Close() }()

	sonoC, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sonoC.Close()
	endoC, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer endoC.Close()

	p := paper.Patient(7)
	// Sono department calls the patient first.
	tk, err := sonoC.Ask(bg, paper.CallAct(p, paper.ExamSono))
	if err != nil {
		t.Fatal(err)
	}
	if err := sonoC.Confirm(bg, tk); err != nil {
		t.Fatal(err)
	}
	// Endo department is refused.
	if _, err := endoC.Ask(bg, paper.CallAct(p, paper.ExamEndo)); err == nil {
		t.Fatal("endo call should be denied while sono runs")
	}
	// After the examination the endo call succeeds.
	if err := sonoC.Request(bg, paper.PerformAct(p, paper.ExamSono)); err != nil {
		t.Fatal(err)
	}
	tk, err = endoC.Ask(bg, paper.CallAct(p, paper.ExamEndo))
	if err != nil {
		t.Fatal(err)
	}
	if err := endoC.Confirm(bg, tk); err != nil {
		t.Fatal(err)
	}
}

// TestManyConcurrentTCPClients: stress the wire protocol with parallel
// clients issuing atomic requests.
func TestManyConcurrentTCPClients(t *testing.T) {
	s, m := startServer(t, "(a | b)*")
	const clients, each = 8, 20
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < each; j++ {
				name := "a"
				if j%2 == 0 {
					name = "b"
				}
				if err := c.Request(bg, act(name)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.Steps(); got != clients*each {
		t.Errorf("committed transitions: got %d want %d", got, clients*each)
	}
}

// TestClientContextCancel: a canceled context aborts the wait without
// wedging the client.
func TestClientContextCancel(t *testing.T) {
	s, _ := startServer(t, "a - b")
	c1 := dial(t, s)
	c2 := dial(t, s)
	tk, err := c1.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	if _, err := c2.Ask(ctx, act("a")); err == nil {
		t.Fatal("expected context timeout while region is held")
	}
	if err := c1.Confirm(bg, tk); err != nil {
		t.Fatal(err)
	}
}

// TestWireErrors: requests the coordinator refuses (an action outside the
// alphabet, an unknown ticket) get error replies. Ops the server does not
// serve are TestUnservedOps' subject.
func TestWireErrors(t *testing.T) {
	s, _ := startServer(t, "a")
	c := dial(t, s)
	if err := c.Request(bg, act("nope")); err == nil {
		t.Error("unknown action should be denied")
	}
	if err := c.Confirm(bg, Ticket(999)); err == nil {
		t.Error("confirm of unknown ticket should fail")
	}
}

// TestUnservedOps: a frame whose opcode has no entry in the server's op
// table — a reply-side op, or an op of an optional surface the
// coordinator lacks — gets an error reply naming the op, and the
// connection keeps serving.
func TestUnservedOps(t *testing.T) {
	m := MustNew(parse.MustParse("(a)*"), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewCoordServer(bareCoordinator{Coordinator: CoordinatorFor(m)}, ln)
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	c := dial(t, s)
	for _, o := range []op{opReply, opInform, opReplicateAck, opReplicate, opPromote, opRole,
		opMigrate, opRetire, opDrain, opResume, opTopology, opStats} {
		_, err := c.callOK(bg, wireMsg{Op: o})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", o.String())) {
			t.Errorf("op %v: got %v, want an error naming the op", o, err)
		}
		if err := c.Request(bg, act("a")); err != nil {
			t.Fatalf("request after unserved op %v: %v", o, err)
		}
	}
}

// TestRetiredOpcodeClosesOnlyItsConnection: opcode 22, the retired
// hello, is a frame the strict decoder refuses. The server closes that
// connection and keeps serving every other one.
func TestRetiredOpcodeClosesOnlyItsConnection(t *testing.T) {
	s, _ := startServer(t, "(a)*")
	good := dial(t, s)
	if err := good.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte{0, 0, 0, 3, 22, 0, 0}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := raw.Read(make([]byte, 64)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server answered a retired opcode (%d bytes, %v), want the connection closed", n, err)
	}
	if err := good.Request(bg, act("a")); err != nil {
		t.Fatalf("other connection after the refused frame: %v", err)
	}
}
