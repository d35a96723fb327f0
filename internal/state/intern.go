package state

import (
	"container/list"

	"repro/internal/expr"
)

// Hash-consing and transition memoization.
//
// The operational semantics re-derives structurally identical sub-state
// work constantly: a manager holding thousands of live workflow
// constraints walks its state term on every action, and most of that
// term is unchanged from the previous action (quantifier branch release
// even makes whole cycles of states recur exactly). A Cache removes the
// repeated work on three levels:
//
//   - hash-consing: states are interned in a structural-sharing table
//     keyed by their canonical Key, so identical sub-states — across
//     quantifier branches and parallel arms — are one object with a
//     small integer identity.
//     Interned states form a DAG; because states are immutable,
//     transitions are copy-on-write against that DAG and a snapshot
//     shares structure with the live state instead of deep-copying it.
//
//   - memoization: the transition function τ̂ and the permissibility
//     probe are memoized in a bounded LRU keyed by (interned state ID,
//     action hash), hits confirmed by structural comparison against the
//     stored action. A hit turns a term walk into a map lookup;
//     rejections (successor = nil) are memoized too, which is what makes
//     repeated Try probes — the manager's subscription re-evaluation —
//     almost free in steady state.
//
//   - sharing: a miss transitions each distinct node of the canonical DAG
//     once, however many paths reach it (see sharing).
//
// Every Engine owns one Cache; nothing shares a Cache across engines,
// and a Cache, like its Engine, is not safe for concurrent use. Both
// tables are bounded by the constants below, so the heap a cache can
// retain is bounded too: at most DefaultMemoCapacity memo entries, and
// defaultInternCapacity interned nodes or internKeyBudget bytes of their
// keys (plus one descent), whatever the expression does.

// DefaultMemoCapacity bounds the transition memo (LRU eviction).
const DefaultMemoCapacity = 1 << 16

// defaultInternCapacity bounds the interning table; overflowing it
// flushes both tables (see maybeFlush).
const defaultInternCapacity = 1 << 20

// internKeyBudget bounds the key bytes the interning table holds, with
// the same flush. A node count does not bound the heap: a node's key is
// as long as the sub-state it names, and a state that grows with every
// action would leave every one of its predecessors interned.
const internKeyBudget = 64 << 20

// CacheStats reports the cache's traffic counters. All counters are
// cumulative; Nodes and MemoEntries are current sizes.
type CacheStats struct {
	Nodes         int    // live interned state nodes
	InternHits    uint64 // Canon calls resolved to an existing node
	InternMisses  uint64 // Canon calls that inserted a new node
	MemoEntries   int    // live memoized transitions
	MemoHits      uint64 // transitions served from the memo
	MemoMisses    uint64 // transitions derived by walking the term
	MemoEvictions uint64 // memo entries dropped by the LRU bound
	Flushes       uint64 // full-table resets after interning overflow
}

// internEntry is one canonical state node: the representative object and
// its small identity used as the memo key.
type internEntry struct {
	id  uint64
	key string
	st  State
}

// memoKey identifies one memoized transition: canonical state id plus
// the action's stable structural hash (expr.Action.Hash — no key string
// is built on the lookup path). Hash collisions are disambiguated by
// the structural comparison against memoEnt.act on every hit.
type memoKey struct {
	sid uint64
	ah  uint64
}

// memoEnt is one memo value. act is the exact action the entry was
// derived for (the collision guard); next == nil records a memoized
// rejection.
type memoEnt struct {
	k    memoKey
	act  expr.Action
	next State
}

// Cache is a hash-consing table plus a bounded transition memo, owned by
// one Engine.
type Cache struct {
	buckets   map[uint64][]*internEntry // expr.HashKey(state key) → chain
	byState   map[State]*internEntry    // identity fast path for canonical states
	nodes     int
	keyBytes  int
	nextID    uint64 // monotone across flushes, so stale memo keys never alias
	internCap int
	keyCap    int

	memo    map[memoKey]*list.Element
	lru     *list.List // front = most recently used
	memoCap int

	walk  walkTable // scratch table of the transition being derived
	stats CacheStats
}

// NewCache creates an empty cache with the constant bounds.
func NewCache() *Cache {
	return &Cache{
		buckets:   make(map[uint64][]*internEntry),
		byState:   make(map[State]*internEntry),
		internCap: defaultInternCapacity,
		keyCap:    internKeyBudget,
		memo:      make(map[memoKey]*list.Element),
		lru:       list.New(),
		memoCap:   DefaultMemoCapacity,
		walk:      walkTable{next: make(map[walkKey]State)},
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	s := c.stats
	s.Nodes = c.nodes
	s.MemoEntries = c.lru.Len()
	return s
}

// Canon returns the canonical interned representative of s: a state with
// the same Key whose every sub-state is the one shared object the table
// holds for that structure. Canonicalizing nil (the invalid state) is
// nil.
func (c *Cache) Canon(s State) State {
	st, _ := c.canon(s)
	return st
}

// canon interns s (and, on a miss, its parts) and returns the canonical
// state with its identity.
func (c *Cache) canon(s State) (State, uint64) {
	if s == nil {
		return nil, 0
	}
	// Identity fast path: a state that IS the canonical representative
	// (an engine's current state after the first step, every interned
	// child) resolves without hashing or comparing its key string — this
	// keeps the memoized transition hit path O(1) in the term size.
	if e, ok := c.byState[s]; ok {
		c.stats.InternHits++
		return e.st, e.id
	}
	// Materialize the key and hash caches before the node is shared.
	k, h := s.Key(), keyHash(s)
	if e := c.find(h, k); e != nil {
		c.stats.InternHits++
		return e.st, e.id
	}
	// Flush on overflow BEFORE descending, so the node and the children
	// interned for it land in the same table generation (the cap is soft
	// by the size of one descent).
	c.maybeFlush()
	// Miss: canonicalize the children (each child looks itself up, so an
	// unchanged subtree stops descending at its first interned node),
	// then publish. No child has s's key, so s is still absent.
	cs := s.internParts(c)
	c.nextID++
	e := &internEntry{id: c.nextID, key: k, st: cs}
	c.buckets[h] = append(c.buckets[h], e)
	c.byState[cs] = e
	c.nodes++
	c.keyBytes += len(k)
	c.stats.InternMisses++
	return cs, e.id
}

func (c *Cache) find(h uint64, k string) *internEntry {
	for _, e := range c.buckets[h] {
		if e.key == k {
			return e
		}
	}
	return nil
}

// maybeFlush resets both tables when the interning table outgrows
// either of its bounds. Eviction from a hash-consing table is delicate — memo
// entries reference node identities — so overflow drops everything at
// once: correctness is untouched (interning is an optimization) and the
// working set re-interns within a few transitions. nextID keeps
// counting, so memo keys minted before the flush can never collide with
// nodes minted after it.
func (c *Cache) maybeFlush() {
	if c.nodes < c.internCap && c.keyBytes < c.keyCap {
		return
	}
	c.buckets = make(map[uint64][]*internEntry)
	c.byState = make(map[State]*internEntry)
	c.nodes, c.keyBytes = 0, 0
	c.memo = make(map[memoKey]*list.Element)
	c.lru = list.New()
	c.stats.Flushes++
}

// Transition is the memoized τ̂: it interns s, consults the memo for
// (state, action), and on a miss derives the successor by a term walk
// that shares the transitions of shared sub-states, interns it and
// records it. A nil result means the action is not permissible in s,
// exactly like Trans; nil results are memoized so repeated probes of an
// impermissible action cost one lookup.
func (c *Cache) Transition(s State, a expr.Action) State {
	if s == nil {
		return nil
	}
	cs, sid := c.canon(s)
	mk := memoKey{sid: sid, ah: a.Hash()}
	if el, ok := c.memo[mk]; ok {
		if ent := el.Value.(*memoEnt); ent.act.Equal(a) {
			c.lru.MoveToFront(el)
			c.stats.MemoHits++
			return ent.next
		}
		// Hash collision between distinct actions: evict the colliding
		// entry in favour of the fresh result derived below.
		c.lru.Remove(el)
		delete(c.memo, mk)
	}
	c.stats.MemoMisses++

	next := cs.trans(a, sharing{tab: &c.walk})
	c.walk.reset()
	next, _ = c.canon(next)

	el := c.lru.PushFront(&memoEnt{k: mk, act: a, next: next})
	c.memo[mk] = el
	for c.lru.Len() > c.memoCap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.memo, back.Value.(*memoEnt).k)
		c.stats.MemoEvictions++
	}
	return next
}

// canonAll canonicalizes a slice of states, preserving order.
func canonAll(c *Cache, ss []State) []State {
	out := make([]State, len(ss))
	for i, s := range ss {
		out[i] = c.Canon(s)
	}
	return out
}

// canonAlts canonicalizes the states of a set of alternatives.
func canonAlts(c *Cache, alts [][]State) [][]State {
	out := make([][]State, len(alts))
	for i, alt := range alts {
		out[i] = canonAll(c, alt)
	}
	return out
}
