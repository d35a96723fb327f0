package main

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/storage"
)

// Decorators: the harness measures each layer from outside, through the
// seams the code already offers. A storage.Backend decorator goes in
// through manager.Options.Storage; net.Conn decorators go in through
// Options.Dialer, DialOptions.Dialer and GatewayOptions.Dialer; a
// decorated manager.Coordinator is handed to NewCoordServer. Only a
// traced run installs them.

// --- storage ---------------------------------------------------------------

// storeCounts are the counts taken at the storage boundary.
type storeCounts struct {
	entries, commits, appends     atomic.Int64
	checkpoints, fullCheckpoints  atomic.Int64
	ckptBytes                     atomic.Int64
	replayEntries, restoredPieces atomic.Int64
}

// tracedStore records a span and a count around every call that does
// storage work; everything else passes through the embedded Backend.
type tracedStore struct {
	storage.Backend
	tr *tracer
	n  *storeCounts
}

func (s *tracedStore) RestoreChain() ([]storage.Checkpoint, error) {
	t := s.tr.now()
	c, err := s.Backend.RestoreChain()
	s.tr.end(spStorageRestore, t)
	s.n.restoredPieces.Add(int64(len(c)))
	return c, err
}

// Replay hands every entry to the manager's callback, which steps the
// engine. That time is the manager's, not the storage's, so while
// tracing the callbacks are timed and their total is recorded as one
// manager.replay span laid at the start of the storage.replay span.
func (s *tracedStore) Replay(fn func(storage.Entry) error) error {
	t := s.tr.now()
	var n, inFn int64
	err := s.Backend.Replay(func(e storage.Entry) error {
		n++
		if t == 0 {
			return fn(e)
		}
		t0 := time.Now()
		err := fn(e)
		inFn += int64(time.Since(t0))
		return err
	})
	s.tr.span(spManagerReplay, t, t+inFn)
	s.tr.end(spStorageReplay, t)
	s.n.replayEntries.Add(n)
	return err
}

func (s *tracedStore) Append(e storage.Entry) error {
	t := s.tr.now()
	err := s.Backend.Append(e)
	s.tr.end(spStorageAppend, t)
	s.n.entries.Add(1)
	s.n.appends.Add(1)
	return err
}

func (s *tracedStore) Buffer(e storage.Entry) error {
	t := s.tr.now()
	err := s.Backend.Buffer(e)
	s.tr.end(spStorageBuffer, t)
	s.n.entries.Add(1)
	return err
}

func (s *tracedStore) Commit(sync bool) error {
	t := s.tr.now()
	err := s.Backend.Commit(sync)
	s.tr.end(spStorageCommit, t)
	s.n.commits.Add(1)
	return err
}

func (s *tracedStore) Sync() error {
	t := s.tr.now()
	err := s.Backend.Sync()
	s.tr.end(spStorageSync, t)
	return err
}

func (s *tracedStore) SaveCheckpoint(c storage.Checkpoint) error {
	t := s.tr.now()
	err := s.Backend.SaveCheckpoint(c)
	s.tr.end(spStorageCheckpoint, t)
	s.n.checkpoints.Add(1)
	if c.Full {
		s.n.fullCheckpoints.Add(1)
	}
	s.n.ckptBytes.Add(int64(len(c.Data)))
	return err
}

func (s *tracedStore) CompactThrough(seq uint64) error {
	t := s.tr.now()
	err := s.Backend.CompactThrough(seq)
	s.tr.end(spStorageCompact, t)
	return err
}

// Crash forwards to the wrapped backend's crash simulation.
func (s *tracedStore) Crash() { s.Backend.(storage.Crasher).Crash() }

// crashStore lets recover_replay end a manager the way a killed process
// ends: Crash stops the backend without flushing, and from then on the
// manager's parting checkpoint, compaction and close do nothing, so
// Manager.Close can still be called to stop the manager's goroutines
// without touching the on-disk image.
type crashStore struct {
	storage.Backend
	crashed atomic.Bool
}

func (s *crashStore) Crash() {
	s.crashed.Store(true)
	s.Backend.(storage.Crasher).Crash()
}

func (s *crashStore) SaveCheckpoint(c storage.Checkpoint) error {
	if s.crashed.Load() {
		return nil
	}
	return s.Backend.SaveCheckpoint(c)
}

func (s *crashStore) CompactThrough(seq uint64) error {
	if s.crashed.Load() {
		return nil
	}
	return s.Backend.CompactThrough(seq)
}

func (s *crashStore) Close() error {
	if s.crashed.Load() {
		return nil
	}
	return s.Backend.Close()
}

// --- connections -----------------------------------------------------------

// connCounts are the counts taken at one class of connection.
type connCounts struct {
	bytesOut, bytesIn, writes, reads, exchanges atomic.Int64
}

// tracedConn counts bytes and calls each way and, when rtt is set,
// records one span per exchange: from the first Write after the
// previous reply to the Read that returns the next reply's bytes. That
// is a round trip only on a connection with one request in flight,
// which is what a traced run keeps.
type tracedConn struct {
	net.Conn
	tr      *tracer
	n       *connCounts
	rtt     bool
	name    spanName
	started atomic.Int64
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if c.rtt {
		if t := c.tr.now(); t != 0 {
			c.started.CompareAndSwap(0, t)
		}
	}
	n, err := c.Conn.Write(p)
	if c.tr.on() {
		c.n.writes.Add(1)
		c.n.bytesOut.Add(int64(n))
	}
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.tr.on() {
		c.n.reads.Add(1)
		c.n.bytesIn.Add(int64(n))
		if c.rtt {
			if t := c.started.Swap(0); t != 0 {
				c.tr.end(c.name, t)
				c.n.exchanges.Add(1)
			}
		}
	}
	return n, err
}

// tracedDialer returns a TCP dialer whose connections are decorated.
func tracedDialer(tr *tracer, n *connCounts, rtt bool, name spanName) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &tracedConn{Conn: conn, tr: tr, n: n, rtt: rtt, name: name}, nil
	}
}

// --- coordinators ----------------------------------------------------------

// managerCoord is everything the Coordinator view of a local manager
// offers the wire server. The decorator must keep offering all of it,
// or the server would stop serving batches, replication and stats.
type managerCoord interface {
	manager.Coordinator
	manager.BatchRequester
	manager.ReplicaTarget
	manager.Elastic
	manager.StatsProvider
}

// tracedManagerCoord records the server-side span of every call that
// does admission work. On a follower that is ApplyReplicated.
type tracedManagerCoord struct {
	managerCoord
	tr *tracer
}

func newTracedManagerCoord(m *manager.Manager, tr *tracer) *tracedManagerCoord {
	return &tracedManagerCoord{managerCoord: manager.CoordinatorFor(m).(managerCoord), tr: tr}
}

func (c *tracedManagerCoord) Ask(ctx context.Context, a expr.Action) (manager.Ticket, error) {
	t := c.tr.now()
	tk, err := c.managerCoord.Ask(ctx, a)
	c.tr.end(spManagerAsk, t)
	return tk, err
}

func (c *tracedManagerCoord) Confirm(ctx context.Context, tk manager.Ticket) error {
	t := c.tr.now()
	err := c.managerCoord.Confirm(ctx, tk)
	c.tr.end(spManagerConfirm, t)
	return err
}

func (c *tracedManagerCoord) Request(ctx context.Context, a expr.Action) error {
	t := c.tr.now()
	err := c.managerCoord.Request(ctx, a)
	c.tr.end(spManagerRequest, t)
	return err
}

func (c *tracedManagerCoord) RequestMany(ctx context.Context, as []expr.Action) []error {
	t := c.tr.now()
	errs := c.managerCoord.RequestMany(ctx, as)
	c.tr.end(spManagerRequest, t)
	return errs
}

func (c *tracedManagerCoord) ApplyReplicated(ctx context.Context, f manager.ReplFrame) (manager.ReplStatus, error) {
	t := c.tr.now()
	st, err := c.managerCoord.ApplyReplicated(ctx, f)
	c.tr.end(spReplApply, t)
	return st, err
}

// gatewayCoord is what a cluster.Gateway offers the wire server.
type gatewayCoord interface {
	manager.Coordinator
	manager.BatchRequester
}

// tracedGatewayCoord records the gateway-side span of a request.
type tracedGatewayCoord struct {
	gatewayCoord
	tr *tracer
}

func (c *tracedGatewayCoord) Request(ctx context.Context, a expr.Action) error {
	t := c.tr.now()
	err := c.gatewayCoord.Request(ctx, a)
	c.tr.end(spClusterRequest, t)
	return err
}
