package manager

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/expr"
)

// Router distributes one coupled interaction expression over multiple
// interaction managers, the scale-out design Sec 7 mentions "to avoid
// the interaction manager to become a bottleneck". A top-level coupling
// y1 @ y2 @ ... @ yn is semantically a per-alphabet conjunction, so each
// operand can be managed independently: an action is permitted iff every
// manager whose alphabet contains it permits it. The router implements
// the resulting two-phase grant: reserve at every involved manager (in a
// fixed global order, which precludes deadlock), then confirm all — or
// abort the ones already granted when any manager refuses.
type Router struct {
	managers []*Manager
	alphas   []*expr.Alphabet
	idx      *NameIndex
}

// NameIndex is a routing index over the alphabets of a partitioned
// coupling: it maps an action name to the (shard, pattern) pairs that
// could match it, so routing an action costs a map lookup plus a match
// per same-named pattern instead of a scan over every pattern of every
// shard. It is shared by the in-process Router and the network Gateway
// (internal/cluster).
type NameIndex struct {
	entries map[string][]nameIndexEntry
	n       int
}

type nameIndexEntry struct {
	shard int
	pat   expr.Pattern
}

// NewNameIndex builds the index for the given per-shard alphabets.
func NewNameIndex(alphas []*expr.Alphabet) *NameIndex {
	ix := &NameIndex{entries: make(map[string][]nameIndexEntry), n: len(alphas)}
	for shard, al := range alphas {
		for _, p := range al.Patterns() {
			ix.entries[p.Name] = append(ix.entries[p.Name], nameIndexEntry{shard: shard, pat: p})
		}
	}
	return ix
}

// Shards returns the number of indexed shards.
func (ix *NameIndex) Shards() int { return ix.n }

// Route returns the ascending indices of the shards whose alphabet
// contains a. Entries are grouped per shard in insertion order, so
// duplicates are adjacent and collapse without a set.
func (ix *NameIndex) Route(a expr.Action) []int {
	var out []int
	last := -1
	for _, e := range ix.entries[a.Name] {
		if e.shard == last {
			continue // this shard already matched on an earlier pattern
		}
		if e.pat.Match(a) {
			out = append(out, e.shard)
			last = e.shard
		}
	}
	return out
}

// NewRouter builds a router for e. A top-level coupling is split into
// one manager per operand; any other expression gets a single manager.
// Options apply to every created manager, except that only manager 0
// uses LogPath directly; further managers append a numeric suffix.
func NewRouter(e *expr.Expr, opts Options) (*Router, error) {
	parts := []*expr.Expr{e}
	if e.Op == expr.OpSync {
		parts = e.Kids
	}
	r := &Router{}
	for i, part := range parts {
		po := opts
		if po.LogPath != "" && i > 0 {
			po.LogPath = fmt.Sprintf("%s.%d", opts.LogPath, i)
		}
		m, err := New(part, po)
		if err != nil {
			for _, prev := range r.managers {
				prev.Close()
			}
			return nil, err
		}
		r.managers = append(r.managers, m)
		r.alphas = append(r.alphas, expr.AlphabetOf(part))
	}
	r.idx = NewNameIndex(r.alphas)
	return r, nil
}

// Managers returns the underlying managers (diagnostics and tests).
func (r *Router) Managers() []*Manager { return r.managers }

// Route returns the indices of the managers whose alphabet contains a,
// via the precomputed name-keyed index (no per-action alphabet scan).
func (r *Router) Route(a expr.Action) []int {
	return r.idx.Route(a)
}

// Try reports whether every involved manager currently permits a. An
// action belonging to no manager's alphabet is not permitted at all.
func (r *Router) Try(a expr.Action) bool {
	involved := r.Route(a)
	if len(involved) == 0 {
		return false
	}
	for _, i := range involved {
		if !r.managers[i].Try(a) {
			return false
		}
	}
	return true
}

// Request performs the distributed ask/confirm: reservations are taken
// at every involved manager in ascending index order; a refusal aborts
// the reservations already granted.
func (r *Router) Request(ctx context.Context, a expr.Action) error {
	involved := r.Route(a)
	if len(involved) == 0 {
		return fmt.Errorf("%w: %s (not in any manager's alphabet)", ErrDenied, a)
	}
	granted := make([]Ticket, 0, len(involved))
	for _, i := range involved {
		t, err := r.managers[i].Ask(ctx, a)
		if err != nil {
			for j := range granted {
				// Abort errors are secondary; the request already failed.
				_ = r.managers[involved[j]].Abort(granted[j])
			}
			return err
		}
		granted = append(granted, t)
	}
	var firstErr error
	for j, i := range involved {
		if err := r.managers[i].Confirm(granted[j]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Final reports whether every manager's word is complete.
func (r *Router) Final() bool {
	for _, m := range r.managers {
		if !m.Final() {
			return false
		}
	}
	return true
}

// AggSubscription is a subscription aggregated over the managers a
// routed action involves: it informs when the conjunction of the
// per-manager statuses flips.
type AggSubscription struct {
	C     <-chan Inform
	parts []aggPart
}

type aggPart struct {
	m   *Manager
	sub *Subscription
}

// Subscribe aggregates per-manager subscriptions: the action's combined
// status is the conjunction of the involved managers' statuses, and the
// returned subscription informs on combined flips.
func (r *Router) Subscribe(a expr.Action) *AggSubscription {
	agg := &AggSubscription{}
	var parts []<-chan Inform
	for _, i := range r.Route(a) {
		part := aggPart{m: r.managers[i], sub: r.managers[i].Subscribe(a)}
		agg.parts = append(agg.parts, part)
		parts = append(parts, part.sub.C)
	}
	agg.C = Conjoin(a, parts)
	return agg
}

// Conjoin folds the status streams of the parts (managers or shards)
// that a subscription to action a spans into one stream: the combined
// status is the conjunction of the parts' latest statuses, false until
// every part has reported, and the returned channel informs on every
// combined flip (SendLatest). It closes once every part's stream has
// closed. With no parts the action is never permissible: one false
// inform, then close.
func Conjoin(a expr.Action, parts []<-chan Inform) <-chan Inform {
	// As deep as a manager's own subscription channel: a subscriber that
	// lags by up to 16 flips loses none.
	out := make(chan Inform, 16)
	if len(parts) == 0 {
		out <- Inform{Action: a, Permissible: false}
		close(out)
		return out
	}
	var mu sync.Mutex
	status := make(map[int]bool, len(parts))
	combined, known := false, false
	var wg sync.WaitGroup
	for i, ch := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for inf := range ch {
				mu.Lock()
				status[i] = inf.Permissible
				now := len(status) == len(parts)
				for _, v := range status {
					now = now && v
				}
				// Sent under the lock, so the parts' flips reach out in
				// the order they were combined.
				if !known || now != combined {
					known, combined = true, now
					SendLatest(out, Inform{Action: a, Permissible: now})
				}
				mu.Unlock()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Unsubscribe tears down an aggregated subscription.
func (r *Router) Unsubscribe(s *AggSubscription) {
	for _, p := range s.parts {
		p.m.Unsubscribe(p.sub)
	}
}

// Close shuts down all managers.
func (r *Router) Close() error {
	var firstErr error
	for _, m := range r.managers {
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
