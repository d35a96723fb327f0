package manager

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

// wireMsg is one message of the wire protocol, carried in the binary
// frames of codec.go. Clients send requests with a correlation id; the
// server answers with the same id and pushes inform messages (id 0) for
// subscriptions. One physical connection multiplexes any number of
// outstanding requests.
type wireMsg struct {
	ID     uint64
	Op     op
	Action string
	Ticket Ticket
	Sub    uint64
	OK     bool
	Err    string
	Perm   bool
	Final  bool
	// Acts frames a multi-op request_many: one atomic request per element,
	// answered by one reply whose Errs has one entry per element ("" = the
	// action was confirmed). One frame per batch keeps a pipelined burst to
	// a single encode/decode and a single socket write each way.
	Acts []string
	Errs []string
	// Replication fields (the replicate/replicate_ack/promote/role ops).
	// A replicate message reuses Acts for the frame's actions; Seq is the
	// commit position (frame base, or the replica's steps in an ack), Tks
	// carries per-action tickets, and a non-nil Snap turns the frame into
	// a full state snapshot (Seq = steps, Prev = commit epoch, Ctr =
	// ticket counter, Tks = confirmed-ticket dedup window).
	Epoch uint64
	Prev  uint64
	Seq   uint64
	Ctr   uint64
	Tks   []uint64
	Snap  json.RawMessage
	Role  string
	// Elastic-membership fields (migrate/retire/drain/resume/topology).
	Addr     string   // follower address to attach/detach
	Addrs    []string // topology reply: follower streams
	Draining bool     // topology reply: drain mode
	// Stats is the reply payload of the stats op: the manager's full
	// observability readout (role, protocol counters, cache counters,
	// metric snapshot with latency histograms).
	Stats *StatsSnapshot
	// Subs carries the subscription ids of a multiplexed inform: one
	// status flip for an action produces a single frame naming every
	// subscription on it, instead of one frame per subscriber.
	Subs []uint64
}

// op is a wire opcode: the first byte of a frame, and the index of the
// server's op table.
type op uint8

// Wire opcodes. The numbers are the frame format; never renumber one.
// 22 was the hello of the retired JSON-lines negotiation: it stays
// unassigned, so the decoder rejects it.
const (
	opAsk         op = 1
	opConfirm     op = 2
	opAbort       op = 3
	opRequest     op = 4
	opRequestMany op = 5
	opTry         op = 6
	opSubscribe   op = 7
	opUnsubscribe op = 8
	opFinal       op = 9
	opReply       op = 10
	opInform      op = 11
	// Replication ops (primary ↔ follower, plus failover control).
	opReplicate    op = 12
	opReplicateAck op = 13
	opPromote      op = 14
	opRole         op = 15
	// Elastic-membership ops (live migration / rebalancing control).
	opMigrate  op = 16 // attach the follower at Addr and resync it
	opRetire   op = 17 // detach the follower stream to Addr
	opDrain    op = 18 // refuse new asks, settle in-flight tickets
	opResume   op = 19 // leave drain mode
	opTopology op = 20 // report role/epoch/steps + streams + drain state
	// Observability op: report the manager's StatsSnapshot (role, protocol
	// counters, memo-cache counters, metric snapshot).
	opStats op = 21
)

// opNames names every assigned opcode, for errors and metric labels.
var opNames = [...]string{
	opAsk: "ask", opConfirm: "confirm", opAbort: "abort", opRequest: "request",
	opRequestMany: "request_many", opTry: "try", opSubscribe: "subscribe",
	opUnsubscribe: "unsubscribe", opFinal: "final", opReply: "reply",
	opInform: "inform", opReplicate: "replicate", opReplicateAck: "replicate_ack",
	opPromote: "promote", opRole: "role", opMigrate: "migrate", opRetire: "retire",
	opDrain: "drain", opResume: "resume", opTopology: "topology", opStats: "stats",
}

// assigned reports whether o is an opcode of the protocol.
func (o op) assigned() bool { return int(o) < len(opNames) && opNames[o] != "" }

func (o op) String() string {
	if o.assigned() {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// serverAskTimeout bounds how long any handler may wait on the
// coordinator; it must exceed any configured reservation timeout. It is
// a variable only so the hung-coordinator regression test can shrink it.
var serverAskTimeout = 30 * time.Second

// Wire-level error sentinels, for clients that need to distinguish "the
// request never left this machine" (safe to retry on a fresh connection)
// from "the connection died while a reply was pending" (the request may
// have been processed; only idempotent operations may retry). The shard
// clients of internal/cluster reconnect based on exactly this split.
var (
	// ErrConnLost: the connection died after the request was written.
	ErrConnLost = errors.New("manager: connection lost")
	// ErrSendFailed: the request could not be written at all.
	ErrSendFailed = errors.New("manager: send failed")
)

// Coordinator is the coordination surface a wire server exposes: the
// ask/confirm/abort protocol of Fig 10 plus status probes and
// subscriptions. A local Manager implements it in process (see
// CoordinatorFor); cluster.Gateway implements it across remote shards, so
// a gateway can be served over the very same wire protocol.
type Coordinator interface {
	Ask(ctx context.Context, a expr.Action) (Ticket, error)
	Confirm(ctx context.Context, t Ticket) error
	Abort(ctx context.Context, t Ticket) error
	Request(ctx context.Context, a expr.Action) error
	Try(ctx context.Context, a expr.Action) (bool, error)
	Final(ctx context.Context) (bool, error)
	// Subscribe opens a subscription for a. The returned cancel function
	// tears it down and must cause the inform channel to close.
	Subscribe(a expr.Action) (<-chan Inform, func(), error)
}

// Elastic is the optional membership surface of a wire server: the
// primitives a live migration composes (attach/detach follower streams,
// drain, topology). A Manager implements it; a Gateway does not — the
// gateway is the thing being repointed, not the thing being moved.
type Elastic interface {
	AttachReplica(ctx context.Context, addr string) (ReplStatus, error)
	DetachReplica(ctx context.Context, addr string) error
	Drain(ctx context.Context) error
	Resume(ctx context.Context) error
	Topology(ctx context.Context) (TopologyInfo, error)
}

// BatchRequester is the optional batched extension of Coordinator: one
// call submits many atomic requests and reports one error per action.
// Manager implements it through its group-commit queue; cluster.Gateway
// implements it by grouping same-shard actions into one wire frame per
// shard. A wire server uses it to serve request_many frames with one
// coordinator call instead of n.
type BatchRequester interface {
	RequestMany(ctx context.Context, actions []expr.Action) []error
}

// StatsProvider is the optional observability surface of a Coordinator:
// the wire server answers the stats op through it. A Manager implements
// it via its StatsSnapshot readout.
type StatsProvider interface {
	StatsSnapshot(ctx context.Context) (StatsSnapshot, error)
}

// MetricsSource lets a wire server discover the obs registry of the
// coordinator it serves (to count frames/bytes and time ops into it)
// without widening the Coordinator interface. Both Manager and
// cluster.Gateway implement it; a coordinator without metrics simply
// does not, and the server stays uninstrumented.
type MetricsSource interface {
	MetricsRegistry() *obs.Registry
}

// --- replication frame codecs -------------------------------------------
//
// The frame ⇄ wireMsg translation is factored out (rather than inlined in
// the client and server) so FuzzReplicationFrame can round-trip the exact
// encoding the protocol uses.

// encodeReplFrame renders a replication frame as a wire message.
func encodeReplFrame(f ReplFrame) wireMsg {
	msg := wireMsg{Op: opReplicate, Epoch: f.Epoch, Prev: f.PrevEpoch, Seq: f.Base}
	msg.Acts = make([]string, len(f.Actions))
	for i, a := range f.Actions {
		msg.Acts[i] = a.String()
	}
	// All-zero ticket lists (batch commits) are elided from the wire.
	for _, t := range f.Tickets {
		if t != 0 {
			msg.Tks = make([]uint64, len(f.Tickets))
			for j, tj := range f.Tickets {
				msg.Tks[j] = uint64(tj)
			}
			break
		}
	}
	return msg
}

// decodeReplFrame parses a replicate wire message back into a frame. Any
// malformed element is an error — a follower must never guess at a frame.
func decodeReplFrame(msg wireMsg) (ReplFrame, error) {
	f := ReplFrame{Epoch: msg.Epoch, PrevEpoch: msg.Prev, Base: msg.Seq}
	if len(msg.Tks) != 0 && len(msg.Tks) != len(msg.Acts) {
		return ReplFrame{}, fmt.Errorf("manager: replication frame has %d tickets for %d actions", len(msg.Tks), len(msg.Acts))
	}
	f.Actions = make([]expr.Action, len(msg.Acts))
	for i, s := range msg.Acts {
		a, err := expr.ParseActionString(s)
		if err != nil {
			return ReplFrame{}, fmt.Errorf("manager: replication frame action %d: %w", i, err)
		}
		f.Actions[i] = a
	}
	if len(msg.Tks) != 0 {
		f.Tickets = make([]Ticket, len(msg.Tks))
		for i, t := range msg.Tks {
			f.Tickets[i] = Ticket(t)
		}
	}
	return f, nil
}

// encodeReplSnapshot renders a full state sync as a wire message.
func encodeReplSnapshot(s ReplSnapshot) wireMsg {
	msg := wireMsg{Op: opReplicate, Epoch: s.Epoch, Prev: s.CommitEpoch, Seq: s.Steps, Ctr: s.Counter, Snap: s.Engine}
	if len(s.Recent) > 0 {
		msg.Tks = make([]uint64, len(s.Recent))
		for i, t := range s.Recent {
			msg.Tks[i] = uint64(t)
		}
	}
	if len(msg.Snap) == 0 {
		// A snapshot is distinguished from an incremental frame by a
		// non-nil Snap; an empty engine payload must still mark itself.
		msg.Snap = json.RawMessage("null")
	}
	return msg
}

// decodeReplSnapshot parses a snapshot wire message.
func decodeReplSnapshot(msg wireMsg) (ReplSnapshot, error) {
	if len(msg.Acts) != 0 {
		return ReplSnapshot{}, errors.New("manager: replication snapshot carries actions")
	}
	s := ReplSnapshot{Epoch: msg.Epoch, CommitEpoch: msg.Prev, Steps: msg.Seq, Counter: msg.Ctr, Engine: msg.Snap}
	if len(msg.Tks) > 0 {
		s.Recent = make([]Ticket, len(msg.Tks))
		for i, t := range msg.Tks {
			s.Recent[i] = Ticket(t)
		}
	}
	return s, nil
}

// coordAdapter lifts a Manager to the Coordinator surface.
type coordAdapter struct{ m *Manager }

func (c coordAdapter) Ask(ctx context.Context, a expr.Action) (Ticket, error) {
	return c.m.Ask(ctx, a)
}
func (c coordAdapter) Confirm(ctx context.Context, t Ticket) error { return c.m.Confirm(t) }
func (c coordAdapter) Abort(ctx context.Context, t Ticket) error   { return c.m.Abort(t) }
func (c coordAdapter) Request(ctx context.Context, a expr.Action) error {
	return c.m.Request(ctx, a)
}
func (c coordAdapter) RequestMany(ctx context.Context, actions []expr.Action) []error {
	return c.m.RequestMany(ctx, actions)
}
func (c coordAdapter) Try(ctx context.Context, a expr.Action) (bool, error) {
	return c.m.Try(a), nil
}
func (c coordAdapter) Final(ctx context.Context) (bool, error) { return c.m.Final(), nil }
func (c coordAdapter) Subscribe(a expr.Action) (<-chan Inform, func(), error) {
	sub := c.m.Subscribe(a)
	return sub.C, func() { c.m.Unsubscribe(sub) }, nil
}
func (c coordAdapter) ApplyReplicated(ctx context.Context, f ReplFrame) (ReplStatus, error) {
	return c.m.ApplyReplicated(f)
}
func (c coordAdapter) InstallReplSnapshot(ctx context.Context, s ReplSnapshot) (ReplStatus, error) {
	return c.m.InstallReplSnapshot(s)
}
func (c coordAdapter) Promote(ctx context.Context) (uint64, error) { return c.m.Promote() }
func (c coordAdapter) ReplStatus(ctx context.Context) (ReplStatus, error) {
	return c.m.Status(), nil
}
func (c coordAdapter) AttachReplica(ctx context.Context, addr string) (ReplStatus, error) {
	return c.m.AttachReplica(ctx, addr)
}
func (c coordAdapter) DetachReplica(ctx context.Context, addr string) error {
	return c.m.DetachReplica(addr)
}
func (c coordAdapter) Drain(ctx context.Context) error  { return c.m.Drain(ctx) }
func (c coordAdapter) Resume(ctx context.Context) error { return c.m.Resume() }
func (c coordAdapter) Topology(ctx context.Context) (TopologyInfo, error) {
	return c.m.Topology(), nil
}
func (c coordAdapter) StatsSnapshot(ctx context.Context) (StatsSnapshot, error) {
	return c.m.StatsSnapshot(), nil
}
func (c coordAdapter) MetricsRegistry() *obs.Registry { return c.m.MetricsRegistry() }

// CoordinatorFor returns the Coordinator view of a local manager.
func CoordinatorFor(m *Manager) Coordinator { return coordAdapter{m: m} }

// Server exposes a Coordinator to interaction clients over TCP.
type Server struct {
	co  Coordinator
	ln  net.Listener
	sm  serverMetrics
	ops [len(opNames)]opEntry

	mu    sync.Mutex
	conns map[net.Conn]bool
	done  chan struct{}
	wg    sync.WaitGroup
}

// serverMetrics counts the wire layer's frames and bytes each way (the
// per-op latency histograms live in the op table). All handles are nil
// when the coordinator exposes no registry, making every count a no-op.
type serverMetrics struct {
	framesIn  *obs.Counter
	framesOut *obs.Counter
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter
}

// countingReader feeds the bytes-in counter as a side effect of reads.
type countingReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(uint64(n))
	}
	return n, err
}

// countingWriter feeds the bytes-out counter as a side effect of writes.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}

// NewServer starts serving the manager on the listener. Serve returns
// immediately; use Close to stop.
func NewServer(m *Manager, ln net.Listener) *Server {
	return NewCoordServer(CoordinatorFor(m), ln)
}

// NewCoordServer serves any Coordinator — a local manager or a cluster
// gateway — on the listener.
func NewCoordServer(co Coordinator, ln net.Listener) *Server {
	var reg *obs.Registry
	if ms, ok := co.(MetricsSource); ok {
		reg = ms.MetricsRegistry()
	}
	s := &Server{co: co, ln: ln, conns: make(map[net.Conn]bool), done: make(chan struct{}),
		sm: serverMetrics{
			framesIn:  reg.Counter("ix_wire_frames_in_total"),
			framesOut: reg.Counter("ix_wire_frames_out_total"),
			bytesIn:   reg.Counter("ix_wire_bytes_in_total"),
			bytesOut:  reg.Counter("ix_wire_bytes_out_total"),
		}}
	s.buildOps(reg)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address (for clients to dial).
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connState is one connection's writer queue, its dispatch goroutines
// and its subscription table. Wire subscriptions to the same action
// share one coordinator subscription and one forwarder goroutine.
type connState struct {
	out      chan wireMsg
	done     <-chan struct{} // the server's stop signal
	handlers sync.WaitGroup  // dispatch goroutines in flight

	mu      sync.Mutex
	nextSub uint64
	byID    map[uint64]*connActSub
	byAct   map[string]*connActSub
	fwd     sync.WaitGroup
}

// connActSub is one shared stream: the coordinator subscription for one
// action, fanned out to every wire subscription id on it.
type connActSub struct {
	key    string
	ids    []uint64
	cancel func()
	known  bool // an inform has arrived; last is meaningful
	last   bool
}

func newConnState(done <-chan struct{}) *connState {
	return &connState{out: make(chan wireMsg, 64), done: done,
		byID: make(map[uint64]*connActSub), byAct: make(map[string]*connActSub)}
}

// send queues one frame for the connection's writer; once the server is
// stopping it drops the frame instead of blocking.
func (cs *connState) send(msg wireMsg) {
	select {
	case cs.out <- msg:
	case <-cs.done:
	}
}

// serveConn handles one client connection: a reader that dispatches every
// frame on its own goroutine, and a writer that drains the send queue.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()

	cs := newConnState(s.done)
	writerDone := make(chan struct{})
	writerUp := make(chan struct{})
	go func() {
		defer close(writerDone)
		enc := newBinEncoder(bufio.NewWriter(&countingWriter{w: conn, c: s.sm.bytesOut}))
		broken := false
		close(writerUp)
		for msg := range cs.out {
			if broken {
				continue // drain so senders never block on a dead writer
			}
			if err := enc.encode(&msg); err != nil {
				broken = true
				continue
			}
			s.sm.framesOut.Inc()
		}
	}()

	defer func() {
		cs.handlers.Wait()
		cs.mu.Lock()
		cancels := make(map[*connActSub]func())
		for _, as := range cs.byID {
			if as.cancel != nil {
				cancels[as] = as.cancel
			}
		}
		cs.byID = map[uint64]*connActSub{}
		cs.byAct = map[string]*connActSub{}
		cs.mu.Unlock()
		for _, cancel := range cancels {
			cancel()
		}
		// Forwarders must be done before out closes: one could be mid-send.
		cs.fwd.Wait()
		close(cs.out)
		<-writerDone
	}()

	// Read only once the writer has started. A client writes its first
	// request right after dialing, so it is often buffered already; its
	// reply must then wake a writer parked on the queue instead of waiting
	// for a goroutine that has never run to be scheduled — a stall the
	// simulator's pacer would mistake for the system waiting on time.
	<-writerUp
	dec := newBinDecoder(bufio.NewReader(&countingReader{r: conn, c: s.sm.bytesIn}))
	for {
		req := new(wireMsg)
		if err := dec.decode(req); err != nil {
			return // connection closed, or a frame the strict decoder refuses
		}
		s.sm.framesIn.Inc()
		cs.handlers.Add(1)
		go s.dispatch(cs, req)
	}
}

// opFunc serves one request: the op's coordinator call, returning the
// reply's result fields. dispatch does the rest.
type opFunc func(ctx context.Context, cs *connState, req *wireMsg) (wireMsg, error)

// opEntry is one row of the op table.
type opEntry struct {
	serve opFunc
	hist  *obs.Histogram // ix_wire_op_ns{op="..."}; nil without a registry
}

// errReplied is how an op tells dispatch that it queued its own reply:
// a subscribe reply must reach the client before the first inform.
var errReplied = errors.New("manager: reply already sent")

// dispatch serves one request through the op table, with the prologue
// and epilogue every op shares: a context bounded by serverAskTimeout (a
// coordinator stuck on a partitioned sync-replication ack must not wedge
// the handler, or the client, forever), the latency observation, and the
// reply, whose error text carries the sentinel identity across the wire.
func (s *Server) dispatch(cs *connState, req *wireMsg) {
	defer cs.handlers.Done()
	e := &s.ops[req.Op]
	var resp wireMsg
	var err error
	if e.serve == nil {
		err = fmt.Errorf("manager: coordinator does not serve op %q", req.Op)
	} else {
		var start time.Time
		if e.hist != nil {
			start = time.Now() // wallclock-ok: op-latency metric, not a protocol decision
		}
		ctx, cancel := context.WithTimeout(context.Background(), serverAskTimeout)
		resp, err = e.serve(ctx, cs, req)
		cancel()
		e.hist.Since(start)
		if err == errReplied {
			return
		}
	}
	resp.ID = req.ID
	if resp.Op == 0 {
		resp.Op = opReply
	}
	if err != nil {
		resp.Err = err.Error()
	} else {
		resp.OK = true
	}
	cs.send(resp)
}

// buildOps fills the op table with every op the coordinator serves. The
// optional surfaces are type-asserted here, once per server; an op they
// would serve is otherwise left out, and dispatch answers it with an
// error naming the op.
func (s *Server) buildOps(reg *obs.Registry) {
	co := s.co
	on := func(o op, serve opFunc) {
		s.ops[o] = opEntry{serve: serve, hist: reg.Histogram(`ix_wire_op_ns{op="` + o.String() + `"}`)}
	}
	on(opAsk, func(ctx context.Context, _ *connState, req *wireMsg) (resp wireMsg, err error) {
		a, err := expr.ParseActionString(req.Action)
		if err == nil {
			resp.Ticket, err = co.Ask(ctx, a)
		}
		return resp, err
	})
	on(opConfirm, func(ctx context.Context, _ *connState, req *wireMsg) (wireMsg, error) {
		return wireMsg{}, co.Confirm(ctx, req.Ticket)
	})
	on(opAbort, func(ctx context.Context, _ *connState, req *wireMsg) (wireMsg, error) {
		return wireMsg{}, co.Abort(ctx, req.Ticket)
	})
	on(opRequest, func(ctx context.Context, _ *connState, req *wireMsg) (wireMsg, error) {
		a, err := expr.ParseActionString(req.Action)
		if err == nil {
			err = co.Request(ctx, a)
		}
		return wireMsg{}, err
	})
	// A request_many goes to the coordinator in one batched call when it
	// supports that (group commit end to end), or back to back otherwise.
	requestMany := func(ctx context.Context, actions []expr.Action) []error {
		errs := make([]error, len(actions))
		for i, a := range actions {
			errs[i] = co.Request(ctx, a)
		}
		return errs
	}
	if br, ok := co.(BatchRequester); ok {
		requestMany = br.RequestMany
	}
	on(opRequestMany, func(ctx context.Context, _ *connState, req *wireMsg) (resp wireMsg, _ error) {
		// One frame carries a whole pipelined burst; slots that fail to
		// parse are answered in place.
		resp.Errs = make([]string, len(req.Acts))
		actions := make([]expr.Action, 0, len(req.Acts))
		slots := make([]int, 0, len(req.Acts))
		for i, act := range req.Acts {
			a, err := expr.ParseActionString(act)
			if err != nil {
				resp.Errs[i] = err.Error()
				continue
			}
			actions = append(actions, a)
			slots = append(slots, i)
		}
		for j, err := range requestMany(ctx, actions) {
			if err != nil {
				resp.Errs[slots[j]] = err.Error()
			}
		}
		return resp, nil
	})
	on(opTry, func(ctx context.Context, _ *connState, req *wireMsg) (resp wireMsg, err error) {
		a, err := expr.ParseActionString(req.Action)
		if err == nil {
			resp.Perm, err = co.Try(ctx, a)
		}
		return resp, err
	})
	on(opFinal, func(ctx context.Context, _ *connState, _ *wireMsg) (resp wireMsg, err error) {
		resp.Final, err = co.Final(ctx)
		return resp, err
	})
	on(opSubscribe, s.subscribe)
	on(opUnsubscribe, func(_ context.Context, cs *connState, req *wireMsg) (wireMsg, error) {
		return wireMsg{}, cs.unsubscribe(req.Sub)
	})
	if rt, ok := co.(ReplicaTarget); ok {
		on(opReplicate, func(ctx context.Context, _ *connState, req *wireMsg) (wireMsg, error) {
			var st ReplStatus
			var err error
			if req.Snap != nil {
				var snap ReplSnapshot
				if snap, err = decodeReplSnapshot(*req); err == nil {
					st, err = rt.InstallReplSnapshot(ctx, snap)
				}
			} else {
				var frame ReplFrame
				if frame, err = decodeReplFrame(*req); err == nil {
					st, err = rt.ApplyReplicated(ctx, frame)
				}
			}
			// The ack reports the replica's identity even on error, so a
			// deposed sender learns the epoch that fenced it and a gapped
			// stream learns the follower's position.
			return wireMsg{Op: opReplicateAck, Role: st.Role, Epoch: st.Epoch, Seq: st.Steps}, err
		})
		on(opPromote, func(ctx context.Context, _ *connState, _ *wireMsg) (resp wireMsg, err error) {
			resp.Epoch, err = rt.Promote(ctx)
			return resp, err
		})
		on(opRole, func(ctx context.Context, _ *connState, _ *wireMsg) (wireMsg, error) {
			st, err := rt.ReplStatus(ctx)
			return wireMsg{Role: st.Role, Epoch: st.Epoch, Seq: st.Steps}, err
		})
	}
	if el, ok := co.(Elastic); ok {
		on(opMigrate, func(ctx context.Context, _ *connState, req *wireMsg) (wireMsg, error) {
			st, err := el.AttachReplica(ctx, req.Addr)
			return wireMsg{Role: st.Role, Epoch: st.Epoch, Seq: st.Steps}, err
		})
		on(opRetire, func(ctx context.Context, _ *connState, req *wireMsg) (wireMsg, error) {
			return wireMsg{}, el.DetachReplica(ctx, req.Addr)
		})
		on(opDrain, func(ctx context.Context, _ *connState, _ *wireMsg) (wireMsg, error) {
			return wireMsg{}, el.Drain(ctx)
		})
		on(opResume, func(ctx context.Context, _ *connState, _ *wireMsg) (wireMsg, error) {
			return wireMsg{}, el.Resume(ctx)
		})
		on(opTopology, func(ctx context.Context, _ *connState, _ *wireMsg) (wireMsg, error) {
			ti, err := el.Topology(ctx)
			return wireMsg{Role: ti.Role, Epoch: ti.Epoch, Seq: ti.Steps,
				Addrs: ti.Replicas, Draining: ti.Draining}, err
		})
	}
	if sp, ok := co.(StatsProvider); ok {
		on(opStats, func(ctx context.Context, _ *connState, _ *wireMsg) (wireMsg, error) {
			snap, err := sp.StatsSnapshot(ctx)
			if err != nil {
				return wireMsg{}, err
			}
			return wireMsg{Stats: &snap}, nil
		})
	}
}

// subscribe opens a wire subscription. It queues its own reply (and
// returns errReplied): the reply must reach the client before the first
// inform, so that the client knows the subscription id.
func (s *Server) subscribe(_ context.Context, cs *connState, req *wireMsg) (wireMsg, error) {
	a, err := expr.ParseActionString(req.Action)
	if err != nil {
		return wireMsg{}, err
	}
	key := a.String()
	reply := wireMsg{ID: req.ID, Op: opReply, OK: true}
	// Fast path: another wire subscription on this connection already
	// streams this action — join it instead of opening a second
	// coordinator subscription and forwarder goroutine.
	cs.mu.Lock()
	if as := cs.byAct[key]; as != nil {
		reply.Sub = cs.addSubLocked(as)
		cs.send(reply)
		if as.known {
			// The joiner still gets its initial status inform — from the
			// shared stream's cache, not a coordinator round trip.
			cs.send(wireMsg{Op: opInform, Sub: reply.Sub, Action: as.key, Perm: as.last})
		}
		cs.mu.Unlock()
		return wireMsg{}, errReplied
	}
	cs.mu.Unlock()
	ch, cancel, err := s.co.Subscribe(a)
	if err != nil {
		return wireMsg{}, err
	}
	cs.mu.Lock()
	as := &connActSub{key: key, cancel: cancel}
	reply.Sub = cs.addSubLocked(as)
	if cs.byAct[key] == nil {
		// A concurrent subscribe to the same action may have won the
		// race; the loser keeps its own stream but future joiners share
		// whichever entry the table holds.
		cs.byAct[key] = as
	}
	cs.send(reply)
	cs.mu.Unlock()
	cs.fwd.Add(1)
	go cs.forwardInforms(as, ch)
	return wireMsg{}, errReplied
}

// addSubLocked gives the shared stream as one more wire subscription id.
// Callers hold cs.mu.
func (cs *connState) addSubLocked(as *connActSub) uint64 {
	cs.nextSub++
	id := cs.nextSub
	as.ids = append(as.ids, id)
	cs.byID[id] = as
	return id
}

// unsubscribe closes one wire subscription; the last one on a shared
// stream tears the stream down.
func (cs *connState) unsubscribe(id uint64) error {
	cs.mu.Lock()
	as, ok := cs.byID[id]
	var cancel func()
	if ok {
		delete(cs.byID, id)
		for i, sid := range as.ids {
			if sid == id {
				as.ids = append(as.ids[:i], as.ids[i+1:]...)
				break
			}
		}
		if len(as.ids) == 0 {
			if cs.byAct[as.key] == as {
				delete(cs.byAct, as.key)
			}
			cancel = as.cancel
		}
	}
	cs.mu.Unlock()
	if !ok {
		return errors.New("manager: unknown subscription")
	}
	if cancel != nil {
		cancel()
	}
	return nil
}

// forwardInforms fans one shared coordinator subscription out to every
// wire subscription id on it: one frame per status flip, naming every id
// in Subs when there is more than one.
func (cs *connState) forwardInforms(as *connActSub, ch <-chan Inform) {
	defer cs.fwd.Done()
	var ids []uint64 // reused snapshot of as.ids, taken under the lock
	for inf := range ch {
		cs.mu.Lock()
		as.known, as.last = true, inf.Permissible
		ids = append(ids[:0], as.ids...)
		cs.mu.Unlock()
		switch len(ids) {
		case 0:
			// Subscribers left between the flip and this delivery.
		case 1:
			cs.send(wireMsg{Op: opInform, Sub: ids[0], Action: as.key, Perm: inf.Permissible})
		default:
			cs.send(wireMsg{Op: opInform, Subs: append([]uint64(nil), ids...),
				Action: as.key, Perm: inf.Permissible})
		}
	}
	// The coordinator closed the stream (shutdown or cancel): drop the
	// table entries so late unsubscribes fail cleanly instead of
	// cancelling a dead stream.
	cs.mu.Lock()
	if cs.byAct[as.key] == as {
		delete(cs.byAct, as.key)
	}
	for _, id := range as.ids {
		if cs.byID[id] == as {
			delete(cs.byID, id)
		}
	}
	as.ids = as.ids[:0]
	cs.mu.Unlock()
}

// Close stops accepting, closes all connections and waits for handlers.
func (s *Server) Close() error {
	close(s.done)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Client is an interaction client speaking the wire protocol; it mirrors
// the Manager API over a TCP connection. Safe for concurrent use.
type Client struct {
	conn net.Conn
	enc  *binEncoder
	wmu  sync.Mutex // serializes writes

	// actCache memoizes parsed inform actions. Only the read loop touches
	// it, so it needs no lock; the bound guards against a server with an
	// unbounded action vocabulary.
	actCache map[string]expr.Action

	mu      sync.Mutex
	nextID  uint64
	waiting map[uint64]chan wireMsg
	subs    map[uint64]chan Inform
	// pending buffers informs that arrive between the server's subscribe
	// reply and the local registration of the subscription channel.
	pending map[uint64][]Inform
	closed  bool
	readErr error
}

// pendingInformCap bounds the per-subscription pending buffer. Once
// full it behaves as a ring: the oldest inform is evicted, matching the
// "latest status wins" drop policy of the registered path.
const pendingInformCap = 16

// ClientSubscription is a remote subscription delivering informs.
type ClientSubscription struct {
	C  <-chan Inform
	id uint64
}

// DialOptions tunes a client connection.
type DialOptions struct {
	// Dialer replaces the TCP dial with a custom transport — the
	// deterministic simulator (internal/sim) injects its in-memory
	// network here. Nil means net.Dial("tcp", addr).
	Dialer func(addr string) (net.Conn, error)
}

// Dial connects to a manager server.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DialOptions{})
}

// DialWith connects with explicit options. The connection speaks the
// binary frames of codec.go from its first byte; there is no handshake.
func DialWith(addr string, opts DialOptions) (*Client, error) {
	dial := opts.Dialer
	if dial == nil {
		dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("manager: dial: %w", err)
	}
	c := &Client{
		conn:     conn,
		enc:      newBinEncoder(bufio.NewWriter(conn)),
		actCache: make(map[string]expr.Action),
		waiting:  make(map[uint64]chan wireMsg),
		subs:     make(map[uint64]chan Inform),
		pending:  make(map[uint64][]Inform),
	}
	go c.readLoop(newBinDecoder(bufio.NewReader(conn)))
	return c, nil
}

// Proto reports the wire encoding, which is always ProtoBinary. It stays
// only for the benchmark harness's report line.
func (c *Client) Proto() string { return ProtoBinary }

func (c *Client) readLoop(dec *binDecoder) {
	var msg wireMsg
	for {
		if err := dec.decode(&msg); err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.waiting {
				delete(c.waiting, id)
				close(ch)
			}
			for id, ch := range c.subs {
				delete(c.subs, id)
				close(ch)
			}
			c.mu.Unlock()
			return
		}
		switch msg.Op {
		case opInform:
			a, err := c.parseInformAction(msg.Action)
			if err != nil {
				continue
			}
			inf := Inform{Action: a, Permissible: msg.Perm}
			if len(msg.Subs) > 0 {
				for _, id := range msg.Subs {
					c.deliverInform(id, inf)
				}
			} else {
				c.deliverInform(msg.Sub, inf)
			}
		default:
			c.mu.Lock()
			ch := c.waiting[msg.ID]
			delete(c.waiting, msg.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- msg
			}
		}
	}
}

// parseInformAction parses an inform's action through the bounded memo
// cache, so steady-state inform delivery re-parses nothing.
func (c *Client) parseInformAction(s string) (expr.Action, error) {
	if a, ok := c.actCache[s]; ok {
		return a, nil
	}
	a, err := expr.ParseActionString(s)
	if err == nil && len(c.actCache) < 1024 {
		c.actCache[s] = a
	}
	return a, err
}

// deliverInform routes one inform to its subscription, buffering it when
// the subscription is not registered yet. Both paths drop the oldest
// inform when full: the latest status wins.
func (c *Client) deliverInform(id uint64, inf Inform) {
	c.mu.Lock()
	ch := c.subs[id]
	if ch == nil {
		// Subscription not registered yet (the reply is still in flight
		// to the Subscribe caller): buffer as a bounded ring.
		p := c.pending[id]
		if len(p) >= pendingInformCap {
			copy(p, p[1:])
			p[len(p)-1] = inf
		} else {
			c.pending[id] = append(p, inf)
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	select {
	case ch <- inf:
	default:
		// Slow subscriber: evict the oldest buffered inform and retry
		// once. If the subscriber raced us to the slot, dropping inf is
		// the same policy one step later.
		select {
		case <-ch:
		default:
		}
		select {
		case ch <- inf:
		default:
		}
	}
}

// call sends one request and waits for its reply.
func (c *Client) call(ctx context.Context, req wireMsg) (wireMsg, error) {
	ch := make(chan wireMsg, 1)
	c.mu.Lock()
	if c.closed {
		// Also a send failure: a connection shared by several callers is
		// closed by whichever finds it dead first, and the others' requests
		// never left — safe to retry on a fresh connection.
		c.mu.Unlock()
		return wireMsg{}, fmt.Errorf("%w: %w", ErrSendFailed, ErrClosed)
	}
	if c.readErr != nil {
		// The reader is gone, so no reply can ever arrive — and writing
		// into the dead socket may even "succeed" into the kernel buffer,
		// which would leave the caller waiting forever. The request never
		// reaches the server, so this counts as a send failure (safe to
		// retry on a fresh connection).
		err := c.readErr
		c.mu.Unlock()
		return wireMsg{}, fmt.Errorf("%w: %v", ErrSendFailed, err)
	}
	c.nextID++
	req.ID = c.nextID
	c.waiting[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := c.enc.encode(&req)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.waiting, req.ID)
		c.mu.Unlock()
		return wireMsg{}, fmt.Errorf("%w: %v", ErrSendFailed, err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return wireMsg{}, fmt.Errorf("%w: %v", ErrConnLost, io.ErrUnexpectedEOF)
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.waiting, req.ID)
		c.mu.Unlock()
		return wireMsg{}, ctx.Err()
	}
}

func (c *Client) callOK(ctx context.Context, req wireMsg) (wireMsg, error) {
	resp, err := c.call(ctx, req)
	if err != nil {
		return resp, err
	}
	if !resp.OK {
		if resp.Err == "" {
			return resp, errors.New("manager: request failed")
		}
		return resp, wireError(resp.Err)
	}
	return resp, nil
}

// wireError reconstructs the sentinel identity of a server-side error
// from its transported message, so errors.Is works across the wire — the
// cluster gateway relies on telling a denial (roll back and report) from
// an infrastructure failure (reconnect).
func wireError(msg string) error {
	for _, sentinel := range []error{ErrDenied, ErrUnknownTicket, ErrClosed,
		ErrNotPrimary, ErrStaleEpoch, ErrReplGap, ErrUncertain, ErrDraining} {
		s := sentinel.Error()
		if msg == s {
			return sentinel
		}
		if strings.HasPrefix(msg, s+":") {
			return fmt.Errorf("%w%s", sentinel, msg[len(s):])
		}
	}
	return errors.New(msg)
}

// Ask runs step 1/2 of the coordination protocol remotely.
func (c *Client) Ask(ctx context.Context, a expr.Action) (Ticket, error) {
	resp, err := c.callOK(ctx, wireMsg{Op: opAsk, Action: a.String()})
	if err != nil {
		return 0, err
	}
	return resp.Ticket, nil
}

// Confirm runs step 4 remotely.
func (c *Client) Confirm(ctx context.Context, t Ticket) error {
	_, err := c.callOK(ctx, wireMsg{Op: opConfirm, Ticket: t})
	return err
}

// Abort releases a granted ask remotely.
func (c *Client) Abort(ctx context.Context, t Ticket) error {
	_, err := c.callOK(ctx, wireMsg{Op: opAbort, Ticket: t})
	return err
}

// Request runs the atomic ask+confirm remotely.
func (c *Client) Request(ctx context.Context, a expr.Action) error {
	_, err := c.callOK(ctx, wireMsg{Op: opRequest, Action: a.String()})
	return err
}

// RequestMany runs a burst of atomic requests remotely in one framed
// multi-op message — one round trip for the whole burst instead of one
// per action. The returned slice has one error per action (nil =
// confirmed). A transport failure fails every action with the same error;
// like Request, the burst is not idempotent, so a lost connection leaves
// the outcome of in-flight actions unknown.
func (c *Client) RequestMany(ctx context.Context, actions []expr.Action) []error {
	errs := make([]error, len(actions))
	if len(actions) == 0 {
		return errs
	}
	acts := make([]string, len(actions))
	for i, a := range actions {
		acts[i] = a.String()
	}
	resp, err := c.callOK(ctx, wireMsg{Op: opRequestMany, Acts: acts})
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	for i := range errs {
		if i < len(resp.Errs) && resp.Errs[i] != "" {
			errs[i] = wireError(resp.Errs[i])
		}
	}
	return errs
}

// Try probes an action's status remotely.
func (c *Client) Try(ctx context.Context, a expr.Action) (bool, error) {
	resp, err := c.callOK(ctx, wireMsg{Op: opTry, Action: a.String()})
	if err != nil {
		return false, err
	}
	return resp.Perm, nil
}

// Final reports remotely whether the confirmed word is complete.
func (c *Client) Final(ctx context.Context) (bool, error) {
	resp, err := c.callOK(ctx, wireMsg{Op: opFinal})
	if err != nil {
		return false, err
	}
	return resp.Final, nil
}

// Replicate ships one replication frame to a follower and returns its
// ack. The status is meaningful even on error: ErrStaleEpoch carries the
// epoch that fenced the sender, ErrReplGap the follower's position.
func (c *Client) Replicate(ctx context.Context, f ReplFrame) (ReplStatus, error) {
	return c.replicate(ctx, encodeReplFrame(f))
}

// ReplicateSnapshot ships a full state sync to a follower.
func (c *Client) ReplicateSnapshot(ctx context.Context, s ReplSnapshot) (ReplStatus, error) {
	return c.replicate(ctx, encodeReplSnapshot(s))
}

func (c *Client) replicate(ctx context.Context, msg wireMsg) (ReplStatus, error) {
	resp, err := c.call(ctx, msg)
	st := ReplStatus{Role: resp.Role, Epoch: resp.Epoch, Steps: resp.Seq}
	if err != nil {
		return st, err
	}
	if !resp.OK {
		if resp.Err == "" {
			return st, errors.New("manager: replicate failed")
		}
		return st, wireError(resp.Err)
	}
	return st, nil
}

// Promote asks the remote manager to become the primary of a new epoch
// (a no-op returning the current epoch if it already is one).
func (c *Client) Promote(ctx context.Context) (uint64, error) {
	resp, err := c.callOK(ctx, wireMsg{Op: opPromote})
	if err != nil {
		return 0, err
	}
	return resp.Epoch, nil
}

// Role reports the remote manager's replication identity.
func (c *Client) Role(ctx context.Context) (ReplStatus, error) {
	resp, err := c.callOK(ctx, wireMsg{Op: opRole})
	if err != nil {
		return ReplStatus{}, err
	}
	return ReplStatus{Role: resp.Role, Epoch: resp.Epoch, Steps: resp.Seq}, nil
}

// Migrate attaches the follower server at addr to the remote primary's
// replication fan-out and ships it a full snapshot resync; the returned
// status is the follower's acked position (the migration's catch-up
// probe).
func (c *Client) Migrate(ctx context.Context, addr string) (ReplStatus, error) {
	resp, err := c.callOK(ctx, wireMsg{Op: opMigrate, Addr: addr})
	if err != nil {
		return ReplStatus{}, err
	}
	return ReplStatus{Role: resp.Role, Epoch: resp.Epoch, Steps: resp.Seq}, nil
}

// Retire detaches the remote manager's follower stream to addr.
func (c *Client) Retire(ctx context.Context, addr string) error {
	_, err := c.callOK(ctx, wireMsg{Op: opRetire, Addr: addr})
	return err
}

// Drain puts the remote manager into drain mode and returns once it is
// quiescent: new asks there fail with ErrDraining, in-flight tickets and
// queued group commits have settled.
func (c *Client) Drain(ctx context.Context) error {
	_, err := c.callOK(ctx, wireMsg{Op: opDrain})
	return err
}

// Resume takes the remote manager out of drain mode.
func (c *Client) Resume(ctx context.Context) error {
	_, err := c.callOK(ctx, wireMsg{Op: opResume})
	return err
}

// Topology reports the remote manager's replication identity, follower
// streams and drain state.
func (c *Client) Topology(ctx context.Context) (TopologyInfo, error) {
	resp, err := c.callOK(ctx, wireMsg{Op: opTopology})
	if err != nil {
		return TopologyInfo{}, err
	}
	return TopologyInfo{Role: resp.Role, Epoch: resp.Epoch, Steps: resp.Seq,
		Draining: resp.Draining, Replicas: resp.Addrs}, nil
}

// Stats fetches the remote manager's observability readout: role and
// progress, protocol counters, the memo-cache counters (previously
// process-local only) and, when the server runs with a metrics registry,
// a full metric snapshot including latency histograms.
func (c *Client) Stats(ctx context.Context) (StatsSnapshot, error) {
	resp, err := c.callOK(ctx, wireMsg{Op: opStats})
	if err != nil {
		return StatsSnapshot{}, err
	}
	if resp.Stats == nil {
		return StatsSnapshot{}, errors.New("manager: stats reply carried no payload")
	}
	return *resp.Stats, nil
}

// Subscribe opens a remote subscription for the action.
func (c *Client) Subscribe(ctx context.Context, a expr.Action) (*ClientSubscription, error) {
	ch := make(chan Inform, 16)
	resp, err := c.callOK(ctx, wireMsg{Op: opSubscribe, Action: a.String()})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.readErr != nil {
		// The reader died between the reply and this registration; it will
		// never see (and close) this channel, so close it here.
		c.mu.Unlock()
		close(ch)
		return &ClientSubscription{C: ch, id: resp.Sub}, nil
	}
	c.subs[resp.Sub] = ch
	// Deliver the buffered informs under the lock: the sends are
	// non-blocking and holding the lock excludes the reader closing the
	// channel concurrently on connection loss.
	for _, inf := range c.pending[resp.Sub] {
		select {
		case ch <- inf:
		default:
		}
	}
	delete(c.pending, resp.Sub)
	c.mu.Unlock()
	return &ClientSubscription{C: ch, id: resp.Sub}, nil
}

// Unsubscribe closes a remote subscription.
func (c *Client) Unsubscribe(ctx context.Context, s *ClientSubscription) error {
	_, err := c.callOK(ctx, wireMsg{Op: opUnsubscribe, Sub: s.id})
	c.mu.Lock()
	if ch, ok := c.subs[s.id]; ok {
		delete(c.subs, s.id)
		close(ch)
	}
	c.mu.Unlock()
	return err
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}
