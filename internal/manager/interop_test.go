package manager

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/parse"
)

// TestProtocolInteropMatrix runs the full protocol surface through a
// client and a server over the wire, including the sentinel-error
// identities the cluster layer depends on.
func TestProtocolInteropMatrix(t *testing.T) {
	t.Run("v2-client/v2-server", func(t *testing.T) {
		s, _ := startServer(t, "(a - b)*")
		c := dial(t, s)

		// The Fig 10 cycle: probe, reserve, confirm, denial.
		if ok, err := c.Try(bg, act("a")); err != nil || !ok {
			t.Fatalf("try a: %v %v", ok, err)
		}
		tk, err := c.Ask(bg, act("a"))
		if err != nil {
			t.Fatalf("ask: %v", err)
		}
		if err := c.Confirm(bg, tk); err != nil {
			t.Fatalf("confirm: %v", err)
		}
		if _, err := c.Ask(bg, act("a")); !errors.Is(err, ErrDenied) {
			t.Fatalf("second ask: %v, want ErrDenied identity", err)
		}
		// Sentinel identity across the wire.
		if err := c.Confirm(bg, Ticket(9999)); !errors.Is(err, ErrUnknownTicket) {
			t.Fatalf("confirm of unknown ticket: %v, want ErrUnknownTicket identity", err)
		}
		if err := c.Request(bg, act("b")); err != nil {
			t.Fatalf("request b: %v", err)
		}
		if fin, err := c.Final(bg); err != nil || !fin {
			t.Fatalf("final: %v %v", fin, err)
		}

		// One pipelined burst with a per-slot failure in the middle.
		errs := c.RequestMany(bg, []expr.Action{act("a"), act("a"), act("b")})
		if errs[0] != nil || errs[2] != nil {
			t.Fatalf("burst: %v", errs)
		}
		if !errors.Is(errs[1], ErrDenied) {
			t.Fatalf("burst slot 1: %v, want ErrDenied identity", errs[1])
		}

		// Subscriptions: initial status, then a flip each way.
		sub, err := c.Subscribe(bg, act("a"))
		if err != nil {
			t.Fatal(err)
		}
		wait := func(want bool) {
			t.Helper()
			for {
				select {
				case inf := <-sub.C:
					if inf.Permissible == want {
						return
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("inform %v timed out", want)
				}
			}
		}
		wait(true) // after "ab·ab", a is next
		if err := c.Request(bg, act("a")); err != nil {
			t.Fatal(err)
		}
		wait(false)
		if err := c.Request(bg, act("b")); err != nil {
			t.Fatal(err)
		}
		wait(true)
		if err := c.Unsubscribe(bg, sub); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMultiplexedSubscriptions: several wire subscriptions to one action
// on one connection must share a single coordinator subscription, joiners
// must get their initial status from the shared stream's cache, and a
// status flip must reach every subscription (as one multi-id frame,
// fanned back out by the client).
func TestMultiplexedSubscriptions(t *testing.T) {
	s, m := startServer(t, "(a - b)*")
	c := dial(t, s)

	const n = 3
	subs := make([]*ClientSubscription, n)
	for i := range subs {
		sub, err := c.Subscribe(bg, act("a"))
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	waitAll := func(want bool) {
		t.Helper()
		for i, sub := range subs {
		recv:
			for {
				select {
				case inf := <-sub.C:
					if inf.Permissible == want {
						break recv
					}
				case <-time.After(2 * time.Second):
					t.Fatalf("sub %d: inform %v timed out", i, want)
				}
			}
		}
	}
	waitAll(true) // every subscription sees its initial status

	// The server multiplexes: one coordinator subscription for all three.
	m.mu.Lock()
	groups := len(m.subs)
	m.mu.Unlock()
	if groups != 1 {
		t.Fatalf("3 wire subscriptions opened %d coordinator subscriptions, want 1", groups)
	}

	if err := c.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	waitAll(false)
	if err := c.Request(bg, act("b")); err != nil {
		t.Fatal(err)
	}
	waitAll(true)

	// The last unsubscribe tears the shared stream down.
	for _, sub := range subs {
		if err := c.Unsubscribe(bg, sub); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		m.mu.Lock()
		groups = len(m.subs)
		m.mu.Unlock()
		if groups == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d coordinator subscriptions left after all unsubscribes", groups)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hangingCoord wedges Confirm and Abort until the handler's context
// expires — a coordinator stuck on a partitioned sync-replication ack.
type hangingCoord struct{ Coordinator }

func (h hangingCoord) Confirm(ctx context.Context, tk Ticket) error {
	<-ctx.Done()
	return ctx.Err()
}

func (h hangingCoord) Abort(ctx context.Context, tk Ticket) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestHungCoordinatorBounded: confirm and abort handlers must bound their
// wait with serverAskTimeout like every other op. Before the fix they
// passed a bare context.Background(), so a wedged coordinator hung the
// handler goroutine — and the client — forever.
func TestHungCoordinatorBounded(t *testing.T) {
	saved := serverAskTimeout
	serverAskTimeout = 200 * time.Millisecond
	defer func() { serverAskTimeout = saved }()

	m := MustNew(parse.MustParse("(a)*"), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewCoordServer(hangingCoord{CoordinatorFor(m)}, ln)
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	c := dial(t, s)

	tk, err := c.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []struct {
		name string
		do   func(context.Context) error
	}{
		{"confirm", func(ctx context.Context) error { return c.Confirm(ctx, tk) }},
		{"abort", func(ctx context.Context) error { return c.Abort(ctx, tk) }},
	} {
		// The client itself imposes no deadline: the bound must come from
		// the server's handler context.
		start := time.Now()
		err := call.do(bg)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("%s against a wedged coordinator succeeded", call.name)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("%s took %v: the handler wait is unbounded", call.name, elapsed)
		}
	}
}

// TestPendingInformRing: informs racing the subscribe reply buffer into a
// bounded ring that evicts the OLDEST entry — the latest status must win.
// Before the fix the buffer dropped the newest inform once full, so a
// subscriber could come up believing a stale status.
func TestPendingInformRing(t *testing.T) {
	c := &Client{
		subs:    make(map[uint64]chan Inform),
		pending: make(map[uint64][]Inform),
	}
	const id = 7
	const total = pendingInformCap + 4
	for i := 0; i < total; i++ {
		c.deliverInform(id, Inform{Action: act(fmt.Sprintf("a%d", i)), Permissible: i%2 == 0})
	}
	p := c.pending[id]
	if len(p) != pendingInformCap {
		t.Fatalf("pending buffer holds %d informs, want %d", len(p), pendingInformCap)
	}
	for i, inf := range p {
		want := fmt.Sprintf("a%d", total-pendingInformCap+i)
		if got := inf.Action.String(); got != want {
			t.Fatalf("pending[%d] = %s, want %s (oldest must be evicted, order preserved)", i, got, want)
		}
	}
}

// TestRegisteredInformDropOldest: a slow subscriber's full channel must
// also lose the oldest inform, not the newest.
func TestRegisteredInformDropOldest(t *testing.T) {
	c := &Client{
		subs:    make(map[uint64]chan Inform),
		pending: make(map[uint64][]Inform),
	}
	ch := make(chan Inform, 2)
	c.subs[5] = ch
	for i := 0; i < 3; i++ {
		c.deliverInform(5, Inform{Action: act(fmt.Sprintf("a%d", i))})
	}
	for i, want := range []string{"a1", "a2"} {
		select {
		case inf := <-ch:
			if got := inf.Action.String(); got != want {
				t.Fatalf("slot %d: %s, want %s", i, got, want)
			}
		default:
			t.Fatalf("slot %d: channel empty", i)
		}
	}
}
