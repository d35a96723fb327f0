package manager

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/parse"
)

// restartServer closes the old server (the manager survives) and serves
// the same manager on a fresh loopback listener.
func restartServer(t *testing.T, old *Server, m *Manager) *Server {
	t.Helper()
	if err := old.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, ln)
	t.Cleanup(func() { s.Close() })
	return s
}

// TestServerRestartMidSession: a server restart kills in-flight client
// connections with a distinguishable error; a fresh client against the
// restarted server sees the exact pre-restart state.
func TestServerRestartMidSession(t *testing.T) {
	m := MustNew(parse.MustParse("a - b - c"), Options{ReservationTimeout: 2 * time.Second})
	defer m.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, ln)

	c1, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if err := c1.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}

	s2 := restartServer(t, s, m)

	// The old connection is dead: calls fail with a connection error, not
	// a hang and not a protocol error.
	_, err = c1.Try(bg, act("b"))
	if err == nil {
		t.Fatal("call on a killed connection should fail")
	}
	if !errors.Is(err, ErrConnLost) && !errors.Is(err, ErrSendFailed) {
		t.Fatalf("want ErrConnLost or ErrSendFailed, got %v", err)
	}

	// A fresh client resumes exactly where the state was left: a is
	// consumed, b is next.
	c2 := dial(t, s2)
	if ok, err := c2.Try(bg, act("a")); err != nil || ok {
		t.Fatalf("a should be consumed after restart: %v %v", ok, err)
	}
	if err := c2.Request(bg, act("b")); err != nil {
		t.Fatalf("b after restart: %v", err)
	}
}

// TestAskRacesDroppedConnection: an ask blocked on the critical region
// whose connection drops must return promptly with ErrConnLost — and the
// server-side reservation machinery must stay usable for everyone else.
func TestAskRacesDroppedConnection(t *testing.T) {
	s, m := startServer(t, "(a | b)*")
	holder := dial(t, s)
	waiter, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}

	tk, err := holder.Ask(bg, act("a"))
	if err != nil {
		t.Fatal(err)
	}

	// The waiter's ask now blocks server-side on the critical region.
	askErr := make(chan error, 1)
	var once sync.Once
	go func() {
		_, err := waiter.Ask(bg, act("b"))
		once.Do(func() { askErr <- err })
	}()
	// Readiness, not a fixed sleep: the manager counts an ask the moment
	// it enters (before parking on the critical region), so the second
	// ask is provably server-side once the counter reaches 2 — under
	// -race a wall-clock sleep is not. The poller is stopped on every
	// exit path so a timeout cannot leak a spinning goroutine.
	ready := make(chan struct{})
	stopPoll := make(chan struct{})
	defer close(stopPoll)
	go func() {
		defer close(ready)
		for m.Stats().Asks < 2 {
			select {
			case <-stopPoll:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter's ask never reached the server")
	}
	waiter.Close()

	select {
	case err := <-askErr:
		if err == nil {
			t.Fatal("ask on a dropped connection should not succeed")
		}
		if !errors.Is(err, ErrConnLost) && !errors.Is(err, ErrClosed) {
			t.Fatalf("want a connection error, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ask did not observe the dropped connection")
	}

	// The holder's session is unaffected.
	if err := holder.Confirm(bg, tk); err != nil {
		t.Fatalf("confirm after waiter dropped: %v", err)
	}
}

// TestSubscribeInformAfterReconnect: a subscription dies with its
// connection (closed channel, no silent stall); resubscribing over a new
// connection delivers the current status and subsequent flips.
func TestSubscribeInformAfterReconnect(t *testing.T) {
	m := MustNew(parse.MustParse("(a - b)*"), Options{})
	defer m.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, ln)

	c1, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	sub1, err := c1.Subscribe(bg, act("b"))
	if err != nil {
		t.Fatal(err)
	}
	if inf := <-sub1.C; inf.Permissible {
		t.Fatal("b should start impermissible")
	}

	s2 := restartServer(t, s, m)

	// The dropped connection closes the subscription channel.
	select {
	case _, ok := <-sub1.C:
		if ok {
			t.Fatal("expected closed subscription channel after restart")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription channel did not close after restart")
	}

	// Reconnect, resubscribe, and watch a real flip arrive.
	c2 := dial(t, s2)
	sub2, err := c2.Subscribe(bg, act("b"))
	if err != nil {
		t.Fatal(err)
	}
	if inf := <-sub2.C; inf.Permissible {
		t.Fatal("b should still be impermissible after reconnect")
	}
	if err := c2.Request(bg, act("a")); err != nil {
		t.Fatal(err)
	}
	select {
	case inf := <-sub2.C:
		if !inf.Permissible {
			t.Fatal("expected b to become permissible after a")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("inform after reconnect timed out")
	}
	if err := c2.Unsubscribe(bg, sub2); err != nil {
		t.Fatal(err)
	}
}

// TestSendAfterServerGone: requests against a fully closed server fail
// fast with a send or connection error (no deadlock, no panic).
func TestSendAfterServerGone(t *testing.T) {
	m := MustNew(parse.MustParse("(a | b)*"), Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, ln)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s.Close()
	m.Close()

	ctx, cancel := context.WithTimeout(bg, 2*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if err := c.Request(ctx, act("a")); err == nil {
			t.Fatal("request against a closed server should fail")
		}
	}
}

// lateListener hands Accept one last connection while it is being
// closed, as a listener whose backlog still held one does.
type lateListener struct {
	conns chan net.Conn
	once  sync.Once
	peer  net.Conn
}

func (l *lateListener) Accept() (net.Conn, error) {
	c, ok := <-l.conns
	if !ok {
		return nil, errors.New("listener closed")
	}
	return c, nil
}

func (l *lateListener) Close() error {
	l.once.Do(func() {
		srv, cli := net.Pipe()
		l.peer = cli
		l.conns <- srv
		close(l.conns)
	})
	return nil
}

func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestServerCloseClosesLateConn: a connection that Accept returns while
// Close runs is closed too, so Close returns instead of waiting forever
// on that connection's reader.
func TestServerCloseClosesLateConn(t *testing.T) {
	m := MustNew(parse.MustParse("a"), Options{})
	defer m.Close()
	for i := 0; i < 200; i++ {
		ln := &lateListener{conns: make(chan net.Conn, 1)}
		s := NewServer(m, ln)
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("iteration %d: Close still waits on a connection accepted while it ran", i)
		}
		ln.peer.Close()
	}
}
