package manager

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/expr"
	"repro/internal/state"
	"repro/internal/storage"
)

// Snapshot/checkpoint recovery. The action log alone makes recovery
// correct but O(history): every confirmed action since the beginning of
// time is replayed through the semantics. A checkpoint bounds that cost:
// every SnapshotEvery confirms the manager serializes its engine state
// (plus the ticket counter and any outstanding reservation) into the
// storage backend and compacts the log, so a restart replays at most
// SnapshotEvery actions — the queued-request recovery discipline of
// Bernstein/Hsu/Mann that Sec 7 adopts, applied to the manager itself.
//
// With a delta-capable backend and FullCheckpointEvery > 1 the
// checkpoints form chains: every N-th is a full base, the ones between
// are deltas carrying only state nodes unseen since the previous
// checkpoint (state.DeltaMarshaller). Restore loads the newest full
// base plus its deltas through one state.DeltaRestorer — same result,
// a fraction of the checkpoint bytes on large, slowly mutating states.
//
// Crash safety: the backend writes each checkpoint atomically (temp
// file, fsync, rename, directory fsync), so a crash mid-write leaves
// the previous chain intact. Log entries carry global sequence numbers;
// recovery replays only entries with seq > checkpoint steps, so a crash
// between checkpoint write and log compaction double-applies nothing.

// managerSnap is the on-disk checkpoint format. Epoch and CommitEpoch
// were added with replication; absent fields decode to zero, which is
// exactly the pre-replication epoch, so version-1 snapshots stay
// readable. Delta-chain pieces use the same envelope: the Engine
// payload is the piece (state format v4), the metadata fields are those
// of the checkpoint instant, so the last piece's metadata wins.
type managerSnap struct {
	V           int             `json:"v"`
	NextTicket  uint64          `json:"next_ticket"`
	Epoch       uint64          `json:"epoch,omitempty"`
	CommitEpoch uint64          `json:"commit_epoch,omitempty"`
	Reserved    *reservedSnap   `json:"reserved,omitempty"`
	Engine      json.RawMessage `json:"engine"`
}

// reservedSnap persists an outstanding reservation (a granted ask not yet
// confirmed or aborted), so a client that survives a manager restart can
// still settle its ticket.
type reservedSnap struct {
	Ticket uint64   `json:"ticket"`
	Name   string   `json:"a"`
	Args   []string `json:"v,omitempty"`
	At     int64    `json:"at"` // unix nanoseconds of the grant
}

const snapVersion = 1

// snapshotLocked writes one checkpoint (full or delta, per the chain
// position) and compacts the log through it. Callers hold m.mu.
//
// Ordering matters: the cadence bookkeeping (Snapshots counter,
// sinceSnap reset) runs only after the checkpoint is stored AND the
// compaction call was accepted — a failure on either path must not
// report a checkpoint cadence it didn't deliver.
func (m *Manager) snapshotLocked() error {
	if !m.ckptOn || m.store == nil {
		return nil
	}
	full := m.fullEvery <= 1 || m.deltaM == nil || m.sinceFull+1 >= m.fullEvery
	var eng []byte
	var err error
	switch {
	case !full:
		eng, err = m.deltaM.MarshalDelta(m.en)
	case m.fullEvery > 1:
		if m.deltaM == nil {
			m.deltaM = state.NewDeltaMarshaller()
		}
		eng, err = m.deltaM.MarshalBase(m.en)
	default:
		eng, err = m.en.MarshalState()
	}
	if err != nil {
		// The marshaller may have assigned ordinals the failed piece was
		// supposed to persist; the chain is dead, restart it.
		m.resetDeltaChainLocked()
		return fmt.Errorf("manager: snapshot: %w", err)
	}
	snap := managerSnap{V: snapVersion, NextTicket: uint64(m.nextTicket),
		Epoch: m.epoch, CommitEpoch: m.commitEpoch, Engine: eng}
	if m.reserved {
		snap.Reserved = &reservedSnap{
			Ticket: uint64(m.ticket),
			Name:   m.reservedAct.Name,
			Args:   m.reservedAct.Values(),
			At:     m.reservedAt.UnixNano(),
		}
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		m.resetDeltaChainLocked()
		return fmt.Errorf("manager: snapshot: %w", err)
	}
	seq := uint64(m.en.Steps())
	if err := m.store.SaveCheckpoint(storage.Checkpoint{Seq: seq, Full: full, Data: append(buf, '\n')}); err != nil {
		// Unstored piece: later deltas would reference nodes that never
		// made it to disk. Restart the chain.
		m.resetDeltaChainLocked()
		return fmt.Errorf("manager: snapshot: %w", err)
	}
	if full {
		m.sinceFull = 0
	} else {
		m.sinceFull++
	}
	if err := m.store.CompactThrough(seq); err != nil {
		// The checkpoint is durable; the uncompacted log only costs replay
		// filtering on the next recovery. But the cadence bookkeeping must
		// not claim a delivered checkpoint cycle.
		return err
	}
	m.stats.Snapshots++
	m.sinceSnap = 0
	return nil
}

// resetDeltaChainLocked abandons the live delta chain after a failed
// checkpoint: the next snapshotLocked writes a fresh full base.
func (m *Manager) resetDeltaChainLocked() {
	m.deltaM = nil
	m.sinceFull = 0
}

// maybeSnapshotLocked checkpoints after every SnapshotEvery confirms.
// Checkpointing is an optimization, so failures are remembered (for
// Snapshot/Close to surface) but do not fail the commit that triggered
// them.
func (m *Manager) maybeSnapshotLocked() {
	m.sinceSnap++
	if !m.ckptOn || m.snapEvery <= 0 || m.sinceSnap < m.snapEvery {
		return
	}
	if err := m.snapshotLocked(); err != nil {
		m.snapErr = err
	}
}

// Snapshot forces a checkpoint now (if the backend stores checkpoints)
// and returns the first error any snapshot attempt produced since the
// last call.
func (m *Manager) Snapshot() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if err := m.snapshotLocked(); err != nil {
		return err
	}
	err := m.snapErr
	m.snapErr = nil
	return err
}

// restoreFromChain loads the backend's checkpoint chain — the newest
// full checkpoint plus every delta after it, oldest first — and
// installs the recovered engine and metadata. With a live delta setup
// the restored chain is continued, not restarted: the marshaller is
// seeded with every node ordinal the chain assigned.
func (m *Manager) restoreFromChain(e *expr.Expr) error {
	chain, err := m.store.RestoreChain()
	if err != nil {
		return err
	}
	if len(chain) == 0 {
		return nil
	}
	dr, err := state.NewDeltaRestorer(e)
	if err != nil {
		return err
	}
	var last managerSnap
	for i, c := range chain {
		var snap managerSnap
		if err := json.Unmarshal(c.Data, &snap); err != nil {
			return fmt.Errorf("manager: decode checkpoint piece %d: %w", i, err)
		}
		if snap.V != snapVersion {
			return fmt.Errorf("manager: checkpoint piece %d has version %d, want %d", i, snap.V, snapVersion)
		}
		if err := dr.Load(snap.Engine); err != nil {
			return fmt.Errorf("manager: restore checkpoint piece %d: %w", i, err)
		}
		last = snap
	}
	en, err := dr.Engine()
	if err != nil {
		return fmt.Errorf("manager: restore checkpoint: %w", err)
	}
	m.en = en
	m.applySnapshotMeta(&last)
	if m.fullEvery > 1 {
		m.deltaM = dr.Marshaller()
		m.sinceFull = len(chain) - 1
	}
	return nil
}

// applySnapshotMeta restores the ticket counter and any outstanding
// reservation recorded in the snapshot. An expired reservation (under the
// configured timeout) is dropped immediately.
func (m *Manager) applySnapshotMeta(snap *managerSnap) {
	m.nextTicket = Ticket(snap.NextTicket)
	m.epoch = snap.Epoch
	m.commitEpoch = snap.CommitEpoch
	if r := snap.Reserved; r != nil {
		at := time.Unix(0, r.At)
		if m.timeout > 0 && m.clk.Now().Sub(at) >= m.timeout {
			m.stats.Aborts++
			return
		}
		m.reserved = true
		m.ticket = Ticket(r.Ticket)
		m.reservedAct = expr.ConcreteAct(r.Name, r.Args...)
		m.reservedNxt = state.Successor{} // Confirm computes it from the restored state
		m.reservedAt = at
	}
}
