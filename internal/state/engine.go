package state

import (
	"errors"
	"fmt"

	"repro/internal/expr"
)

// Verdict classifies a word, following the int convention of Fig 9.
type Verdict int

const (
	// Illegal: the word is not even a partial word.
	Illegal Verdict = 0
	// Partial: the word is a partial but not a complete word.
	Partial Verdict = 1
	// Complete: the word is a complete word of the expression.
	Complete Verdict = 2
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case Illegal:
		return "illegal"
	case Partial:
		return "partial"
	case Complete:
		return "complete"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// ErrRejected is returned by Engine.Step for an action that is not
// currently permissible.
var ErrRejected = errors.New("state: action rejected")

// ErrStaleSuccessor is returned by Engine.Commit for a successor that was
// computed from a state other than the engine's current one.
var ErrStaleSuccessor = errors.New("state: successor is stale")

// Engine drives the operational semantics of one closed interaction
// expression: it holds the current state and implements the word problem
// and the action problem of Sec 5 (Fig 9). Every engine owns a private,
// constant-bounded Cache from construction: its states are hash-consed
// and its transitions memoized, so a recurring (state, action) pair is a
// map lookup. Engine is not safe for concurrent use; the interaction
// manager adds locking on top.
type Engine struct {
	e     *expr.Expr
	cur   State
	steps int
	cache *Cache
}

// NewEngine creates an engine in the initial state σ(e). The expression
// must be closed (no free parameters).
func NewEngine(e *expr.Expr) (*Engine, error) {
	if err := checkClosed(e); err != nil {
		return nil, err
	}
	return newEngine(e, Initial(e), 0), nil
}

func checkClosed(e *expr.Expr) error {
	if e == nil {
		return errors.New("state: nil expression")
	}
	if !e.Closed() {
		return fmt.Errorf("state: expression has free parameters: %s", e)
	}
	return nil
}

// newEngine is the one constructor behind NewEngine, RestoreEngine and
// DeltaRestorer.Engine: the engine starts on the canonical form of cur
// in a cache of its own.
func newEngine(e *expr.Expr, cur State, steps int) *Engine {
	c := NewCache()
	return &Engine{e: e, cur: c.Canon(cur), steps: steps, cache: c}
}

// MustEngine is NewEngine that panics on error, for tests and examples.
func MustEngine(e *expr.Expr) *Engine {
	en, err := NewEngine(e)
	if err != nil {
		panic(err)
	}
	return en
}

// CacheStats reports the traffic counters of the engine's cache.
func (en *Engine) CacheStats() CacheStats { return en.cache.Stats() }

// Expr returns the expression the engine executes.
func (en *Engine) Expr() *expr.Expr { return en.e }

// Reset returns the engine to the initial state.
func (en *Engine) Reset() {
	en.cur = en.cache.Canon(Initial(en.e))
	en.steps = 0
}

// Valid reports ψ of the current state: whether the actions consumed so
// far form a partial word. Step and Commit refuse invalidating actions,
// so a live engine never leaves the valid states.
func (en *Engine) Valid() bool { return en.cur != nil }

// Final reports ϕ of the current state: whether the consumed actions form
// a complete word.
func (en *Engine) Final() bool { return Final(en.cur) }

// StateSize returns the size of the current state, the complexity measure
// of Sec 6.
func (en *Engine) StateSize() int { return Size(en.cur) }

// Steps returns the number of actions consumed so far.
func (en *Engine) Steps() int { return en.steps }

// Successor is one tentative transition (Engine.Advance): the state τ̂
// reaches, tied to the state it was computed from. Without a reached
// state (the zero Successor included) the action was not permissible.
type Successor struct {
	from, next State
}

// Permissible reports whether the advance found a transition.
func (s Successor) Permissible() bool { return s.next != nil }

// Advance computes τ̂ for the concrete action from the current state —
// the one tentative transition of the action problem (Sec 5) — without
// changing the engine. Commit installs the result.
func (en *Engine) Advance(a expr.Action) Successor {
	if !a.Concrete() {
		return Successor{}
	}
	return Successor{from: en.cur, next: en.cache.Transition(en.cur, a)}
}

// Check reports why Commit would refuse s — ErrRejected without a reached
// state, ErrStaleSuccessor when s was not computed from the engine's
// current state — or nil. A caller that writes a log before it commits
// checks first, so a refused successor leaves no log record behind.
func (en *Engine) Check(s Successor) error {
	if s.next == nil {
		return fmt.Errorf("state: commit after %d steps: %w", en.steps, ErrRejected)
	}
	if s.from != en.cur {
		return fmt.Errorf("state: commit after %d steps: %w", en.steps, ErrStaleSuccessor)
	}
	return nil
}

// Commit makes a permissible successor the current state. A successor
// that Check refuses is not applied and nothing changes.
func (en *Engine) Commit(s Successor) error {
	if err := en.Check(s); err != nil {
		return err
	}
	en.cur = s.next
	en.steps++
	return nil
}

// Try reports whether the concrete action is currently permissible. The
// state is not changed.
func (en *Engine) Try(a expr.Action) bool { return en.Advance(a).Permissible() }

// Step consumes the action if it is permissible and returns ErrRejected
// otherwise (leaving the state unchanged), mirroring the action() loop of
// Fig 9.
func (en *Engine) Step(a expr.Action) error {
	if !a.Concrete() {
		return fmt.Errorf("state: non-concrete action %s: %w", a, ErrRejected)
	}
	next := en.Advance(a)
	if !next.Permissible() {
		return fmt.Errorf("state: %s after %d steps: %w", a, en.steps, ErrRejected)
	}
	return en.Commit(next)
}

// Word solves the word problem for w from the initial state, without
// disturbing the engine's current state: it returns Complete, Partial or
// Illegal exactly as the word() function of Fig 9.
func (en *Engine) Word(w []expr.Action) Verdict {
	s := en.cache.Canon(Initial(en.e))
	for _, a := range w {
		s = en.cache.Transition(s, a)
		if s == nil {
			return Illegal
		}
	}
	if s.Final() {
		return Complete
	}
	return Partial
}

// StateKey returns the canonical key of the current state (diagnostics).
func (en *Engine) StateKey() string {
	if en.cur == nil {
		return "<invalid>"
	}
	return en.cur.Key()
}
