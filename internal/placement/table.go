// Package placement is the cluster's control plane: who serves which
// shard, and who decides when that changes.
//
// The data plane (internal/cluster) executes grants against whatever
// endpoints it currently knows; this package owns that knowledge. A
// RouteTable is the single authoritative mapping shard → ordered replica
// address set, versioned by a monotone per-shard generation, that N
// stateless gateways consume through a watch/apply seam — every topology
// change (failover repair, live migration, retire) propagates to the
// whole gateway fleet instead of silently updating one process's private
// copy. A Controller closes the loop: it polls per-shard load signals
// (asks/s, queue depth, memo hit rate — the three signals
// manager.StatsSnapshot exports), scores them with an EWMA, and
// schedules live migrations under hysteresis, cooldown and a
// one-migration-at-a-time budget.
//
// The package deliberately depends only on clock and obs: the data plane
// satisfies its seams (cluster.Gateway is an Applier,
// cluster.Rebalancer a LoadSource and Mover), never the other way
// around, so control-plane policy can be tested without a single socket.
package placement

import (
	"fmt"
	"sync"
)

// Applier consumes route-table rows: one call per changed shard, with
// the shard's full ordered endpoint list. A cluster gateway follows its
// table through an unexported applier that hands each row to the shard
// client (the serving connection survives when its endpoint stays
// listed; otherwise the shard client's generation bump routes in-flight
// two-phase grants through the resume path).
type Applier interface {
	SetShardAddrs(shard int, addrs []string) error
}

// ShardRoute is one shard's row: its ordered replica endpoints and the
// monotone generation stamped on the last change.
type ShardRoute struct {
	Shard int      `json:"shard"`
	Gen   uint64   `json:"gen"`
	Addrs []string `json:"addrs"`
}

// Snapshot is an atomic copy of the whole table. Gen is the table
// generation (bumped once per applied change across all shards), the
// rows carry their own per-shard generations.
type Snapshot struct {
	Gen    uint64       `json:"gen"`
	Shards []ShardRoute `json:"shards"`
}

// Route returns shard's row (shared backing array; callers must not
// mutate) and reports whether the snapshot has that shard.
func (s Snapshot) Route(shard int) (ShardRoute, bool) {
	if shard < 0 || shard >= len(s.Shards) {
		return ShardRoute{}, false
	}
	return s.Shards[shard], true
}

// RouteTable is the shared, versioned shard → replica-set mapping. All
// mutations are serialized and fan out synchronously to every follower:
// when Set/Add/Remove/Apply returns, the whole registered fleet has the
// new row. Followers registered later catch up on registration (Follow
// applies the full current table first), so there is no window where a
// gateway serves from a row the table has already replaced.
type RouteTable struct {
	// applyMu serializes mutations *including* their fan-out, so two
	// concurrent changes can never reach followers in different orders.
	// It is held across Applier calls; appliers must not call back into
	// the table.
	applyMu sync.Mutex

	mu        sync.Mutex
	gen       uint64
	shards    []ShardRoute
	nextID    uint64
	followers map[uint64]Applier
	watchers  map[uint64]chan Snapshot

	// migrateMu serializes live migrations per shard across the whole
	// fleet: every Rebalancer over a table-attached gateway locks the
	// shard here, not in its private client, so two gateways can never
	// run concurrent promotions of the same shard (same-epoch double
	// promotion is a split brain).
	migrateMu []sync.Mutex
}

// NewRouteTable builds a table with one row per shard. Every row starts
// at generation 1 and must be non-empty.
func NewRouteTable(addrs [][]string) (*RouteTable, error) {
	t := &RouteTable{
		followers: make(map[uint64]Applier),
		watchers:  make(map[uint64]chan Snapshot),
		migrateMu: make([]sync.Mutex, len(addrs)),
	}
	for i, a := range addrs {
		if len(a) == 0 {
			return nil, fmt.Errorf("placement: shard %d has no endpoints", i)
		}
		t.shards = append(t.shards, ShardRoute{Shard: i, Gen: 1, Addrs: append([]string(nil), a...)})
	}
	t.gen = 1
	return t, nil
}

// MustRouteTable is NewRouteTable that panics on error (tests, examples).
func MustRouteTable(addrs [][]string) *RouteTable {
	t, err := NewRouteTable(addrs)
	if err != nil {
		panic(err)
	}
	return t
}

// Shards returns the number of shards the table routes.
func (t *RouteTable) Shards() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.shards)
}

// Gen returns the table generation.
func (t *RouteTable) Gen() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// Snapshot returns an atomic copy of the table.
func (t *RouteTable) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *RouteTable) snapshotLocked() Snapshot {
	s := Snapshot{Gen: t.gen, Shards: make([]ShardRoute, len(t.shards))}
	for i, r := range t.shards {
		s.Shards[i] = ShardRoute{Shard: i, Gen: r.Gen, Addrs: append([]string(nil), r.Addrs...)}
	}
	return s
}

// Addrs returns a copy of shard's current endpoint list.
func (t *RouteTable) Addrs(shard int) ([]string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if shard < 0 || shard >= len(t.shards) {
		return nil, fmt.Errorf("placement: shard %d out of range (%d shards)", shard, len(t.shards))
	}
	return append([]string(nil), t.shards[shard].Addrs...), nil
}

// Set replaces shard's endpoint list, bumps its generation, and applies
// the new row to every follower before returning. A list equal to the
// current one is a no-op (no generation bump, no fan-out).
func (t *RouteTable) Set(shard int, addrs []string) error {
	t.applyMu.Lock()
	defer t.applyMu.Unlock()
	return t.setLocked(shard, addrs)
}

// setLocked is Set under applyMu (held by the caller).
func (t *RouteTable) setLocked(shard int, addrs []string) error {
	if len(addrs) == 0 {
		return fmt.Errorf("placement: shard %d needs at least one endpoint", shard)
	}
	t.mu.Lock()
	if shard < 0 || shard >= len(t.shards) {
		t.mu.Unlock()
		return fmt.Errorf("placement: shard %d out of range (%d shards)", shard, len(t.shards))
	}
	if equalAddrs(t.shards[shard].Addrs, addrs) {
		t.mu.Unlock()
		return nil
	}
	t.shards[shard].Addrs = append([]string(nil), addrs...)
	t.shards[shard].Gen++
	t.gen++
	row := t.shards[shard]
	followers, snap := t.fanoutLocked()
	t.mu.Unlock()
	t.publish(followers, []ShardRoute{row}, snap)
	return nil
}

// Add appends addr to shard's row (no-op when already listed). Adding
// is always safe mid-flight: a fresh follower never wins an election
// while a live higher-epoch primary exists.
func (t *RouteTable) Add(shard int, addr string) error {
	t.applyMu.Lock()
	defer t.applyMu.Unlock()
	addrs, err := t.Addrs(shard)
	if err != nil {
		return err
	}
	for _, a := range addrs {
		if a == addr {
			return nil
		}
	}
	return t.setLocked(shard, append(addrs, addr))
}

// Remove drops addr from shard's row (the retire step of a migration).
// The last endpoint cannot be removed; an unlisted addr is a no-op.
func (t *RouteTable) Remove(shard int, addr string) error {
	t.applyMu.Lock()
	defer t.applyMu.Unlock()
	addrs, err := t.Addrs(shard)
	if err != nil {
		return err
	}
	kept := addrs[:0]
	for _, a := range addrs {
		if a != addr {
			kept = append(kept, a)
		}
	}
	if len(kept) == len(addrs) {
		return nil
	}
	if len(kept) == 0 {
		return fmt.Errorf("placement: cannot remove shard %d's last endpoint %s", shard, addr)
	}
	return t.setLocked(shard, kept)
}

// Apply merges a snapshot into the table: every row whose generation is
// strictly higher than the local one replaces it (the local generation
// jumps to the row's, keeping it monotone); stale and equal rows are
// ignored. This is how a gateway fleet syncs from another fleet's table
// dump — applying the same snapshot twice, or two snapshots out of
// order, converges to the newest row per shard. It reports how many
// rows were applied.
func (t *RouteTable) Apply(s Snapshot) (int, error) {
	t.applyMu.Lock()
	defer t.applyMu.Unlock()
	t.mu.Lock()
	var changed []ShardRoute
	for _, row := range s.Shards {
		if row.Shard < 0 || row.Shard >= len(t.shards) {
			t.mu.Unlock()
			return 0, fmt.Errorf("placement: snapshot routes shard %d, table has %d shards", row.Shard, len(t.shards))
		}
		if len(row.Addrs) == 0 {
			t.mu.Unlock()
			return 0, fmt.Errorf("placement: snapshot routes shard %d to no endpoints", row.Shard)
		}
		if row.Gen <= t.shards[row.Shard].Gen {
			continue
		}
		t.shards[row.Shard] = ShardRoute{Shard: row.Shard, Gen: row.Gen, Addrs: append([]string(nil), row.Addrs...)}
		changed = append(changed, t.shards[row.Shard])
	}
	if len(changed) == 0 {
		t.mu.Unlock()
		return 0, nil
	}
	t.gen++
	followers, snap := t.fanoutLocked()
	t.mu.Unlock()
	t.publish(followers, changed, snap)
	return len(changed), nil
}

// fanoutLocked copies the follower list and snapshots the table for
// publication outside t.mu (appliers take their own locks).
func (t *RouteTable) fanoutLocked() ([]Applier, Snapshot) {
	followers := make([]Applier, 0, len(t.followers))
	for _, f := range t.followers {
		followers = append(followers, f)
	}
	return followers, t.snapshotLocked()
}

// publish pushes changed rows to followers (synchronously, still under
// applyMu — ordering) and the full snapshot to watchers (latest-wins,
// never blocking).
func (t *RouteTable) publish(followers []Applier, rows []ShardRoute, snap Snapshot) {
	for _, f := range followers {
		for _, row := range rows {
			// The table guarantees in-range shards and non-empty rows, so
			// an applier error means a fleet misconfiguration (wrong shard
			// count) that Follow already rejected; nothing to do here.
			_ = f.SetShardAddrs(row.Shard, row.Addrs)
		}
	}
	// Watcher sends stay under t.mu (they never block — latest-wins on a
	// buffered channel), which excludes the cancel-side close: a send on
	// a closed watch channel is impossible.
	t.mu.Lock()
	for _, ch := range t.watchers {
		select {
		case ch <- snap:
		default:
			// Replace the pending (stale) snapshot with the newest: a slow
			// watcher always observes the latest table.
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- snap:
			default:
			}
		}
	}
	t.mu.Unlock()
}

// Follow registers an applier and immediately applies the full current
// table to it, so a gateway constructed from an older snapshot converges
// before the first mutation lands. Every later change is applied
// synchronously, in mutation order, before the mutating call returns.
// Follow fails (and registers nothing) when the initial apply reports an
// error — an applier built for a different shard count.
// The returned function unregisters the applier.
func (t *RouteTable) Follow(ap Applier) (func(), error) {
	t.applyMu.Lock()
	defer t.applyMu.Unlock()
	t.mu.Lock()
	snap := t.snapshotLocked()
	t.mu.Unlock()
	for _, row := range snap.Shards {
		if err := ap.SetShardAddrs(row.Shard, row.Addrs); err != nil {
			return nil, fmt.Errorf("placement: follower rejected shard %d: %w", row.Shard, err)
		}
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.followers[id] = ap
	t.mu.Unlock()
	return func() {
		// applyMu excludes an in-flight publish, so after unfollow
		// returns the applier is guaranteed to receive nothing more.
		t.applyMu.Lock()
		defer t.applyMu.Unlock()
		t.mu.Lock()
		delete(t.followers, id)
		t.mu.Unlock()
	}, nil
}

// Watch returns a channel receiving the table snapshot after every
// change, latest-wins: a slow consumer skips intermediate versions but
// always observes the newest. The returned function cancels the watch
// and closes the channel.
func (t *RouteTable) Watch() (<-chan Snapshot, func()) {
	ch := make(chan Snapshot, 1)
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.watchers[id] = ch
	t.mu.Unlock()
	return ch, func() {
		t.mu.Lock()
		_, ok := t.watchers[id]
		delete(t.watchers, id)
		t.mu.Unlock()
		if ok {
			close(ch)
		}
	}
}

// MigrateLock locks shard for one live migration across every gateway
// attached to this table and returns the unlock. The zero cost of a
// shared table buying fleet-wide migration exclusion is the reason the
// data plane asks the table, not its private client, for this lock.
func (t *RouteTable) MigrateLock(shard int) func() {
	mu := &t.migrateMu[shard]
	mu.Lock()
	return mu.Unlock
}

func equalAddrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
