package state

import (
	"container/list"
	"slices"

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
//     keyed by their structural ids (shape.go), each match confirmed by
//     comparing shapes, so identical sub-states — across quantifier
//     branches and parallel arms — are one object. A node's id folds its
//     children's ids, so interning a node costs O(arity), however large
//     the state it names. Interned states form a DAG; because states are
//     immutable, transitions are copy-on-write against that DAG and a
//     snapshot shares structure with the live state instead of
//     deep-copying it.
//
//   - memoization: the transition function τ̂ and the permissibility
//     probe are memoized in a bounded LRU keyed by (canonical state id,
//     action hash), hits confirmed by the canonical state's identity and
//     a structural comparison against the stored action. A hit turns a
//     term walk into a map lookup; rejections (successor = nil) are
//     memoized too, which is what makes repeated Try probes — the
//     manager's subscription re-evaluation — almost free in steady state.
//
//   - sharing: a miss transitions each distinct node of the canonical DAG
//     once, however many paths reach it (see sharing).
//
// Every Engine owns one Cache; nothing shares a Cache across engines,
// and a Cache, like its Engine, is not safe for concurrent use. Both
// tables are bounded by the constants below, so the heap a cache can
// retain is bounded too: at most DefaultMemoCapacity memo entries, and
// defaultInternCapacity interned nodes or defaultInternParts parts of
// their shapes (plus one descent), none holding a key as long as the
// state it names, whatever the expression does.

// DefaultMemoCapacity bounds the transition memo (LRU eviction).
const DefaultMemoCapacity = 1 << 16

// defaultInternCapacity bounds the interning table; overflowing it
// flushes both tables (see maybeFlush).
const defaultInternCapacity = 1 << 20

// defaultInternParts bounds the parts (children, branches, values) of
// the interned nodes' shapes, with the same flush. A node count does not
// bound the heap: an all node holds a branch per open value, and a state
// that grows with every action leaves every predecessor interned, so the
// table's parts grow with the square of the actions.
const defaultInternParts = 1 << 22

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

// memoKey identifies one memoized transition: canonical state id plus
// the action's stable structural hash (expr.Action.Hash — no key string
// is built on the lookup path). Collisions are disambiguated on every
// hit by memoEnt.from and memoEnt.act.
type memoKey struct {
	sid uint64
	ah  uint64
}

// memoEnt is one memo value. from and act are the exact canonical state
// and action the entry was derived for (the collision guard); next ==
// nil records a memoized rejection.
type memoEnt struct {
	k    memoKey
	from State
	act  expr.Action
	next State
}

// Cache is a hash-consing table plus a bounded transition memo, owned by
// one Engine.
type Cache struct {
	table     idTable[struct{}] // the canonical nodes
	nodes     int
	parts     int
	internCap int
	partsCap  int

	memo    map[memoKey]*list.Element
	lru     *list.List // front = most recently used
	memoCap int

	walk  walkTable // scratch table of the transition being derived
	stats CacheStats
}

// NewCache creates an empty cache with the constant bounds.
func NewCache() *Cache {
	c := &Cache{
		table:     make(idTable[struct{}]),
		internCap: defaultInternCapacity,
		partsCap:  defaultInternParts,
		memo:      make(map[memoKey]*list.Element),
		lru:       list.New(),
		memoCap:   DefaultMemoCapacity,
	}
	c.walk = walkTable{c: c, next: make(map[walkKey]State)}
	return c
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	s := c.stats
	s.Nodes = c.nodes
	s.MemoEntries = c.lru.Len()
	return s
}

// Canon returns the canonical interned representative of s: an equal
// state (same id and shape, hence the same Key) whose every sub-state is
// the one shared object the table holds for that structure.
// Canonicalizing nil (the invalid state) is nil. A state that is the
// canonical representative (an engine's current state after the first
// step, every interned child) resolves by its id and pointer, so the
// memoized transition hit path is O(1) in the term size.
func (c *Cache) Canon(s State) State {
	if s == nil {
		return nil
	}
	if e, ok := c.table.get(s); ok {
		c.stats.InternHits++
		return e.st
	}
	// Flush on overflow BEFORE descending, so the node and the children
	// interned for it land in the same table generation (the cap is soft
	// by the size of one descent).
	c.maybeFlush()
	// Miss: canonicalize the children (each child looks itself up, so an
	// unchanged subtree stops descending at its first interned node),
	// then publish. No child equals s, so s is still absent.
	cs := s.internParts(c)
	c.table.put(cs, struct{}{})
	c.nodes++
	c.parts += partsOf(cs)
	c.stats.InternMisses++
	return cs
}

// maybeFlush resets both tables when the interning table outgrows
// either of its bounds. Eviction from a hash-consing table is delicate — memo entries
// reference canonical nodes — so overflow drops everything at once:
// correctness is untouched (interning is an optimization) and the
// working set re-interns within a few transitions.
func (c *Cache) maybeFlush() {
	if c.nodes < c.internCap && c.parts < c.partsCap {
		return
	}
	c.table = make(idTable[struct{}])
	c.nodes, c.parts = 0, 0
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
	cs := c.Canon(s)
	mk := memoKey{sid: cs.sid(), ah: a.Hash()}
	if el, ok := c.memo[mk]; ok {
		if ent := el.Value.(*memoEnt); ent.from == cs && ent.act.Equal(a) {
			c.lru.MoveToFront(el)
			c.stats.MemoHits++
			return ent.next
		}
		// Collision between distinct states or actions: evict the
		// colliding entry in favour of the fresh result derived below.
		c.lru.Remove(el)
		delete(c.memo, mk)
	}
	c.stats.MemoMisses++

	next := cs.trans(a, sharing{tab: &c.walk})
	c.walk.reset()
	next = c.Canon(next)

	el := c.lru.PushFront(&memoEnt{k: mk, from: cs, act: a, next: next})
	c.memo[mk] = el
	for c.lru.Len() > c.memoCap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.memo, back.Value.(*memoEnt).k)
		c.stats.MemoEvictions++
	}
	return next
}

// canonEach applies canon, which canonicalizes the states of an element
// and reports whether any changed, to every element of xs, preserving
// order. It returns xs itself when every element is canonical already,
// as the elements of a node a cache's walk built are, and a copy
// otherwise; it reports which.
func canonEach[T any](xs []T, canon func(T) (T, bool)) ([]T, bool) {
	for i, x := range xs {
		if y, changed := canon(x); changed {
			out := slices.Clone(xs)
			out[i] = y
			for j := i + 1; j < len(xs); j++ {
				out[j], _ = canon(xs[j])
			}
			return out, true
		}
	}
	return xs, false
}

// reuse returns s when changed is false, and otherwise a copy of s that
// set has given the canonical parts.
func reuse[T any](s *T, changed bool, set func(*T)) *T {
	if !changed {
		return s
	}
	n := *s
	set(&n)
	return &n
}

// canonOf is Canon that reports whether s was not canonical.
func (c *Cache) canonOf(s State) (State, bool) {
	cs := c.Canon(s)
	return cs, cs != s
}

// canonAll canonicalizes a slice of states (canonEach).
func canonAll(c *Cache, ss []State) ([]State, bool) { return canonEach(ss, c.canonOf) }

// canonAlts canonicalizes the states of a set of alternatives.
func canonAlts(c *Cache, alts [][]State) ([][]State, bool) {
	return canonEach(alts, func(alt []State) ([]State, bool) { return canonAll(c, alt) })
}
