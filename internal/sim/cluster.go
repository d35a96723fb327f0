package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/expr"
	"repro/internal/manager"
)

// Transport abstracts how a cluster under test is wired: the simulator's
// in-memory network with its logical clock, or real TCP sockets with the
// wall clock. The chaos scenario (chaos.go) is written against this
// interface once and runs on both — the simulator for volume (tens of
// thousands of schedules in seconds), TCP for fidelity (CI soaks over
// real sockets).
type Transport interface {
	// Listen binds a listener; addr "" allocates a fresh address, a
	// non-empty addr rebinds a node's stable endpoint (the restart path).
	Listen(addr string) (net.Listener, error)
	// Dialer is the dial function handed to every Options seam; nil
	// means TCP.
	Dialer() func(addr string) (net.Conn, error)
	// Clock is the time source handed to every Options seam.
	Clock() clock.Clock
	// Name tags journals and artifacts ("sim" or "tcp").
	Name() string
	// Close releases transport resources (the simulator's pacer).
	Close()
}

// SimTransport is the deterministic in-process transport: an in-memory
// Network plus a logical Clock that advances only under the pacer's
// stuck-detector (below).
type SimTransport struct {
	Net *Network
	Clk *Clock

	inOp atomic.Int64 // depth of driver ops in flight; timers only fire inside one
	stop chan struct{}
	wg   sync.WaitGroup
}

// stuckThreshold is how long (real time) the driver must sit inside one
// synchronous operation with zero network activity before the pacer
// concludes the system is waiting on logical time and fires the earliest
// pending timer. Network-byte quiescence alone is NOT a safe idle signal
// — between a server reading a request and writing its reply the wires
// are empty while work is in flight — so the pacer demands a sustained
// stall. Genuine stalls (drain pacing, reservation expiry, ack timeouts
// against partitioned peers) are rare per schedule, so a generous
// threshold costs little and keeps -race runs (where handler steps are
// 10-20x slower) from firing timers under a live handler.
const stuckThreshold = 3 * time.Millisecond

// NewSimTransport builds a fresh simulated network and clock and starts
// the pacer.
func NewSimTransport() *SimTransport {
	tr := &SimTransport{Net: NewNetwork(), Clk: NewClock(), stop: make(chan struct{})}
	tr.wg.Add(1)
	go tr.pace()
	return tr
}

// OpBegin marks the driver entering a synchronous operation (a request,
// a migration, a probe). While no op is in flight logical time is
// frozen: nothing can be waiting on it.
func (tr *SimTransport) OpBegin() { tr.inOp.Add(1) }

// OpEnd marks the operation complete.
func (tr *SimTransport) OpEnd() { tr.inOp.Add(-1) }

// pace is the auto-advance loop: poll on a real-time tick, and once the
// driver has been stuck — inside an op, network quiet, no bytes moved —
// for stuckThreshold, jump logical time to the earliest pending deadline
// and fire it. Wall time decides only *when* the jump happens, never the
// logical order: time moves solely over a provably quiescent system, so
// the resulting schedule is a pure function of the PRNG draws.
func (tr *SimTransport) pace() {
	defer tr.wg.Done()
	tick := time.NewTicker(100 * time.Microsecond) // wallclock-ok: pacer poll, logical order unaffected
	defer tick.Stop()
	var lastAct uint64
	stallStart := time.Now() // wallclock-ok: stuck-detector, logical order unaffected
	for {
		select {
		case <-tr.stop:
			return
		case <-tick.C:
		}
		act := tr.Net.Activity()
		now := time.Now() // wallclock-ok: stuck-detector, logical order unaffected
		if tr.inOp.Load() == 0 || act != lastAct || !tr.Net.Quiet() {
			lastAct = act
			stallStart = now
			continue
		}
		if now.Sub(stallStart) < stuckThreshold {
			continue
		}
		// Fire one deadline, then restart the stall window so the woken
		// goroutine gets to make progress before time moves again.
		tr.Clk.AdvanceToPending()
		stallStart = now
	}
}

func (tr *SimTransport) Listen(addr string) (net.Listener, error) { return tr.Net.Listen(addr) }
func (tr *SimTransport) Dialer() func(string) (net.Conn, error)   { return tr.Net.Dial }
func (tr *SimTransport) Clock() clock.Clock                       { return tr.Clk }
func (tr *SimTransport) Name() string                             { return "sim" }
func (tr *SimTransport) Close() {
	select {
	case <-tr.stop:
	default:
		close(tr.stop)
	}
	tr.wg.Wait()
}

// opTracker is implemented by transports that need op boundaries for
// their pacer; the harness brackets every synchronous driver action.
type opTracker interface {
	OpBegin()
	OpEnd()
}

// TCPTransport runs the same scenarios over real loopback sockets and
// the wall clock.
type TCPTransport struct{}

// leases holds the ports Listen("") handed out until Release: a node
// restarts on its old port, which no other schedule may take meanwhile.
var leases = struct {
	sync.Mutex
	ports map[string]bool
}{ports: make(map[string]bool)}

// Listen binds a fresh address below the kernel's ephemeral port range
// (32768 and up on Linux), because a port from that range can become
// the source port of any outgoing connection in the process — the chaos
// suites run hundreds of schedules at once. A fresh address is leased
// until Release. Rebinding a node's address retries EADDRINUSE for up
// to a second, for a process outside this one that took the port.
func (TCPTransport) Listen(addr string) (net.Listener, error) {
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		for try := 0; errors.Is(err, syscall.EADDRINUSE) && try < 50; try++ {
			time.Sleep(20 * time.Millisecond) // wallclock-ok: the TCP transport runs on the wall clock
			ln, err = net.Listen("tcp", addr)
		}
		return ln, err
	}
	leases.Lock()
	defer leases.Unlock()
	var err error
	for try := 0; try < 100; try++ {
		var ln net.Listener
		a := fmt.Sprintf("127.0.0.1:%d", 20000+rand.IntN(12000))
		if !leases.ports[a] {
			if ln, err = net.Listen("tcp", a); err == nil {
				leases.ports[a] = true
				return ln, nil
			}
		}
	}
	return nil, err
}

// Release ends the lease Listen("") took on addr.
func (TCPTransport) Release(addr string) {
	leases.Lock()
	delete(leases.ports, addr)
	leases.Unlock()
}

func (TCPTransport) Dialer() func(string) (net.Conn, error) { return nil }
func (TCPTransport) Clock() clock.Clock                     { return clock.Real }
func (TCPTransport) Name() string                           { return "tcp" }
func (TCPTransport) Close()                                 {}

// ReplSet is one shard's replica set under scenario control: n nodes on
// stable addresses, each streaming to all its peers with synchronous
// replication, crash-stoppable and restartable in place. The library
// twin of the cluster package's test helper, transport-generic.
type ReplSet struct {
	e     *expr.Expr
	tr    Transport
	Addrs []string
	ms    []*manager.Manager
	srvs  []*manager.Server
	base  []manager.Options
}

// NewReplSet binds n listeners up front (so every node knows its
// peers), then starts node 0 as primary and the rest as followers. dir
// holds each node's action log and snapshot (persistence is what makes
// a restarted node rejoin with its acked history, the precondition for
// the zero-loss invariant under out-of-band promotions).
func NewReplSet(e *expr.Expr, n int, tr Transport, dir string, custom func(i int, o *manager.Options)) (_ *ReplSet, err error) {
	rs := &ReplSet{e: e, tr: tr,
		ms: make([]*manager.Manager, n), srvs: make([]*manager.Server, n), base: make([]manager.Options, n)}
	lns := make([]net.Listener, n) // bound and not yet owned by a node's server
	defer func() {
		if err != nil {
			for _, ln := range lns {
				if ln != nil {
					ln.Close()
				}
			}
			rs.Close() // stops the nodes started and gives up the leases
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := tr.Listen("")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		rs.Addrs = append(rs.Addrs, ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		var peers []string
		for j, a := range rs.Addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		opts := manager.Options{
			Replicas:           peers,
			SyncReplicas:       true,
			Follower:           i != 0,
			Dialer:             tr.Dialer(),
			Clock:              tr.Clock(),
			ReservationTimeout: 2 * time.Second,
		}
		if dir != "" {
			nodeDir := filepath.Join(dir, fmt.Sprintf("node%d", i))
			if err := os.MkdirAll(nodeDir, 0o755); err != nil {
				return nil, err
			}
			opts.LogPath = filepath.Join(nodeDir, "actions.log")
			opts.SnapshotPath = filepath.Join(nodeDir, "state.snap")
			opts.SnapshotEvery = 3
		}
		if custom != nil {
			custom(i, &opts)
		}
		rs.base[i] = opts
		if err := rs.startNode(i, lns[i]); err != nil {
			return nil, err
		}
		lns[i] = nil
	}
	return rs, nil
}

func (rs *ReplSet) startNode(i int, ln net.Listener) error {
	m, err := manager.New(rs.e, rs.base[i])
	if err != nil {
		return err
	}
	if ln == nil {
		if ln, err = rs.tr.Listen(rs.Addrs[i]); err != nil {
			m.Close()
			return err
		}
	}
	rs.ms[i] = m
	rs.srvs[i] = manager.NewServer(m, ln)
	return nil
}

// StopNode crash-stops node i (no-op if already down).
func (rs *ReplSet) StopNode(i int) {
	if rs.srvs[i] == nil {
		return
	}
	rs.srvs[i].Close()
	rs.ms[i].Close()
	rs.srvs[i], rs.ms[i] = nil, nil
}

// RestartNode brings a crashed node back as a follower on its stable
// address, recovering from its on-disk log and snapshot.
func (rs *ReplSet) RestartNode(i int) error {
	rs.base[i].Follower = true
	return rs.startNode(i, nil)
}

// Managers exposes the replica managers; a nil entry is a dead node.
// The harness is omniscient — it holds the manager objects in process —
// the system under test is not.
func (rs *ReplSet) Managers() []*manager.Manager { return rs.ms }

// Close stops every node and gives up the nodes' addresses.
func (rs *ReplSet) Close() {
	for i := range rs.ms {
		rs.StopNode(i)
	}
	if l, ok := rs.tr.(interface{ Release(addr string) }); ok {
		for _, a := range rs.Addrs {
			l.Release(a)
		}
	}
}
