package state

import (
	"encoding/json"
	"fmt"

	"repro/internal/expr"
)

// Delta checkpoints. The DAG snapshot format
// deduplicates by structural identity within one snapshot; a delta chain
// simply stretches that deduplication across snapshots. A
// DeltaMarshaller keeps its encoder alive between calls, so a state
// node already emitted by an earlier checkpoint of the chain encodes as
// the same one-field back-reference {"r": ordinal} it would get within
// a single snapshot — a delta piece physically contains only the nodes
// created since the previous checkpoint. On large, slowly mutating
// states (the common steady state of a long-lived manager, where a step
// rewrites one branch of a widely shared DAG) that cuts checkpoint
// bytes by the sharing factor, the same instinct as IC3's frame-by-
// frame incremental over-approximation: persist the change, not the
// world.
//
// Restore mirrors this exactly: a DeltaRestorer keeps its decoder's
// ordinal table alive across Load calls, so references reaching into
// earlier pieces resolve. Each piece records its chain position (Idx)
// and the ordinal count it expects the loader to have (Ord); both are
// verified, so a truncated, reordered or mixed-up chain fails loudly
// rather than silently resolving references against the wrong nodes.
// Every piece carries its chain's format version: a chain written
// before version 4 loads to its end, but is not extended (Marshaller).

// DeltaMarshaller writes a chain of engine checkpoints: a full base
// (MarshalBase) followed by deltas (MarshalDelta) that contain only
// state nodes unseen since the previous piece. A marshaller is bound to
// the chain it is writing; if storing a produced piece fails, discard
// the marshaller and start a fresh chain with MarshalBase — its encoder
// has already assigned ordinals to nodes the failed piece was supposed
// to persist, so later deltas from it would dangle.
//
// Deduplication is by structural identity (equal shapes, hence equal
// keys), not object identity, so the chain survives hash-cons cache
// flushes and engine restarts alike.
type DeltaMarshaller struct {
	enc  *encoder
	next int // chain index of the next piece
}

// NewDeltaMarshaller returns a marshaller with no chain started; the
// first piece must be a MarshalBase.
func NewDeltaMarshaller() *DeltaMarshaller { return &DeltaMarshaller{} }

// MarshalBase serializes the engine's full state as a chain-starting
// base piece and resets the chain: nothing before it is referenced.
func (dm *DeltaMarshaller) MarshalBase(en *Engine) ([]byte, error) {
	if en.cur == nil {
		return nil, fmt.Errorf("state: cannot snapshot an invalid engine state")
	}
	enc := newEncoder()
	data, err := json.Marshal(engineSnap{
		V:     snapFormatVersion,
		Expr:  en.e.String(),
		Steps: en.steps,
		State: enc.state(en.cur),
	})
	if err != nil {
		return nil, err
	}
	dm.enc = enc
	dm.next = 1
	return data, nil
}

// MarshalDelta serializes only the state nodes unseen since the chain's
// previous piece; everything else is back-references. On error the
// marshaller is poisoned (see type comment): discard it.
func (dm *DeltaMarshaller) MarshalDelta(en *Engine) ([]byte, error) {
	if dm.enc == nil {
		return nil, fmt.Errorf("state: delta checkpoint without a base")
	}
	if en.cur == nil {
		return nil, fmt.Errorf("state: cannot snapshot an invalid engine state")
	}
	ord := dm.enc.n // before the walk assigns this piece's ordinals
	data, err := json.Marshal(engineSnap{
		V:     snapFormatVersion,
		Idx:   dm.next,
		Ord:   ord,
		Expr:  en.e.String(),
		Steps: en.steps,
		State: dm.enc.state(en.cur),
	})
	if err != nil {
		return nil, err
	}
	dm.next++
	return data, nil
}

// DeltaRestorer rebuilds an engine from a checkpoint chain, loading the
// pieces oldest first. A standalone snapshot of any supported format is
// a valid first piece, so a restore path treats "one snapshot" as the
// degenerate one-piece chain.
type DeltaRestorer struct {
	e    *expr.Expr
	d    *decoder
	next int // chain index of the next expected piece
	v    int // format version the chain's later pieces carry
	cur  State
	st   int
}

// NewDeltaRestorer returns a restorer for chains of engine checkpoints
// of the closed expression e.
func NewDeltaRestorer(e *expr.Expr) (*DeltaRestorer, error) {
	if err := checkClosed(e); err != nil {
		return nil, err
	}
	return &DeltaRestorer{e: e, d: &decoder{exprs: make(map[string]*expr.Expr)}}, nil
}

// Load decodes the next piece of the chain. Pieces must be loaded
// oldest first, starting with the full base; the piece's chain index
// and expected ordinal count are verified against the restorer's
// progress before any reference is resolved.
func (dr *DeltaRestorer) Load(data []byte) error {
	var snap engineSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("state: decode snapshot: %w", err)
	}
	if dr.next == 0 {
		switch snap.V {
		case 0, 2, 3, snapFormatVersion:
			if snap.Idx != 0 || snap.Ord != 0 {
				return fmt.Errorf("state: delta chain broken: first piece has chain index %d (want a full base)", snap.Idx)
			}
		default:
			return fmt.Errorf("state: snapshot format version %d not supported (want 0, 2, 3 or %d)", snap.V, snapFormatVersion)
		}
		// Version 3 extended the standalone formats 0 and 2 with version-3
		// deltas.
		dr.v = max(snap.V, 3)
	} else {
		if snap.V != dr.v {
			return fmt.Errorf("state: delta chain broken: piece %d has format version %d (want %d)", dr.next, snap.V, dr.v)
		}
		if snap.Idx != dr.next {
			return fmt.Errorf("state: delta chain broken: piece has chain index %d, want %d", snap.Idx, dr.next)
		}
		if snap.Ord != len(dr.d.byOrd) {
			return fmt.Errorf("state: delta chain broken: piece %d expects %d prior nodes, have %d", snap.Idx, snap.Ord, len(dr.d.byOrd))
		}
	}
	if snap.Expr != dr.e.String() {
		return fmt.Errorf("state: snapshot is for %q, not %q", snap.Expr, dr.e)
	}
	cur, err := dr.d.state(snap.State)
	if err != nil {
		return err
	}
	dr.cur = cur
	dr.st = snap.Steps
	dr.next++
	return nil
}

// Engine returns an engine in the state of the last loaded piece,
// behaviourally identical to the engine that was checkpointed.
func (dr *DeltaRestorer) Engine() (*Engine, error) {
	if dr.next == 0 {
		return nil, fmt.Errorf("state: no checkpoint loaded")
	}
	return newEngine(dr.e, dr.cur, dr.st), nil
}

// Marshaller returns a DeltaMarshaller that continues the restored
// chain: its encoder is seeded with every node ordinal the chain has
// assigned, so the next MarshalDelta references them instead of
// re-serializing, and a restarted manager keeps extending the chain it
// recovered from. A chain written before the current format version is
// not extended: Marshaller returns nil, and the next checkpoint is a
// full base.
func (dr *DeltaRestorer) Marshaller() *DeltaMarshaller {
	if dr.v != snapFormatVersion {
		return nil
	}
	enc := &encoder{seen: make(idTable[int]), n: len(dr.d.byOrd)}
	for i, s := range dr.d.byOrd {
		enc.seen.put(s, i+1)
	}
	return &DeltaMarshaller{enc: enc, next: dr.next}
}
