package state

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/parse"
)

// TestCacheInterningSharesStructure: canonicalizing two structurally
// equal states yields the same object, across engines and expressions.
func TestCacheInterningSharesStructure(t *testing.T) {
	c := NewCache()
	e1 := parse.MustParse("(a - b)* || c")
	e2 := parse.MustParse("(a - b)* || c")
	s1 := c.Canon(Initial(e1))
	s2 := c.Canon(Initial(e2))
	if s1 != s2 {
		t.Fatal("identical initial states should intern to one object")
	}
	st := c.Stats()
	if st.InternHits == 0 || st.Nodes == 0 {
		t.Fatalf("expected intern traffic, got %+v", st)
	}
	// A transition's unchanged sub-structure stays shared.
	n1 := c.Transition(s1, expr.ConcreteAct("a"))
	n2 := c.Transition(s2, expr.ConcreteAct("a"))
	if n1 != n2 {
		t.Fatal("identical successors should be one object")
	}
	if n1 == nil || n1.Key() != Trans(Initial(e1), expr.ConcreteAct("a")).Key() {
		t.Fatal("canonical successor must match the plain transition")
	}
}

// TestCacheMemoizesRejections: an impermissible probe is derived once
// and served from the memo afterwards.
func TestCacheMemoizesRejections(t *testing.T) {
	c := NewCache()
	s := c.Canon(Initial(parse.MustParse("a - b")))
	bad := expr.ConcreteAct("b")
	if c.Transition(s, bad) != nil {
		t.Fatal("b before a should be impermissible")
	}
	before := c.Stats()
	for i := 0; i < 5; i++ {
		if c.Transition(s, bad) != nil {
			t.Fatal("b before a should stay impermissible")
		}
	}
	after := c.Stats()
	if after.MemoHits-before.MemoHits != 5 {
		t.Fatalf("rejections not memoized: %+v → %+v", before, after)
	}
}

// TestCacheLRUEviction: the memo respects its bound and keeps working
// correctly after evictions.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache()
	c.memoCap = 4 // tiny bound for the test
	e := parse.MustParse("(a1 | a2 | a3 | a4 | a5 | a6 | a7 | a8)*")
	s := c.Canon(Initial(e))
	for round := 0; round < 3; round++ {
		for i := 1; i <= 8; i++ {
			a := expr.ConcreteAct("a" + string(rune('0'+i)))
			if c.Transition(s, a) == nil {
				t.Fatalf("a%d should be permissible", i)
			}
		}
	}
	st := c.Stats()
	if st.MemoEntries > 4 {
		t.Fatalf("memo exceeded its bound: %+v", st)
	}
	if st.MemoEvictions == 0 {
		t.Fatalf("expected evictions: %+v", st)
	}
}

// TestCacheFlushOnInternOverflow: overflowing either bound of the
// interning table resets both tables but never corrupts behaviour.
func TestCacheFlushOnInternOverflow(t *testing.T) {
	e := parse.MustParse("all p: (call(p) - perform(p))*")
	for name, shrink := range map[string]func(*Cache){
		"nodes":     func(c *Cache) { c.internCap = 8 },
		"key bytes": func(c *Cache) { c.keyCap = 512 },
	} {
		en := MustEngine(e)
		shrink(en.cache) // tiny bound for the test
		ref := newPlainRef(e)
		for i := 0; i < 30; i++ {
			p := "pat" + string(rune('a'+i%5))
			for _, a := range []expr.Action{expr.ConcreteAct("call", p), expr.ConcreteAct("perform", p)} {
				if err := en.Step(a); err != nil {
					t.Fatalf("%s: step %s: %v", name, a, err)
				}
				if !ref.step(a) {
					t.Fatalf("%s: ref step %s rejected", name, a)
				}
				if en.StateKey() != ref.key() {
					t.Fatalf("%s: states diverge after flush: %s vs %s", name, en.StateKey(), ref.key())
				}
			}
		}
		if en.CacheStats().Flushes == 0 {
			t.Fatalf("%s: expected at least one flush: %+v", name, en.CacheStats())
		}
	}
}

// TestCacheConcurrentEngines: engines over one shared expression, each
// with its own cache, stepped on their own goroutines. Nothing mutable
// may be shared between them: run under -race (as the CI soak job does)
// this fails on any package-level table or cross-engine state.
func TestCacheConcurrentEngines(t *testing.T) {
	e := parse.MustParse("all p: (call(p) - (any q: assist(p,q)) - perform(p))*")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			en := MustEngine(e)
			p := "pat" + string(rune('0'+w%4)) // overlapping populations → equal states
			for i := 0; i < 50; i++ {
				for _, a := range []expr.Action{
					expr.ConcreteAct("call", p),
					expr.ConcreteAct("assist", p, "h"),
					expr.ConcreteAct("perform", p),
				} {
					if err := en.Step(a); err != nil {
						t.Errorf("worker %d step %s: %v", w, a, err)
						return
					}
				}
			}
			if st := en.CacheStats(); st.MemoHits == 0 {
				t.Errorf("worker %d: recurring states never hit the memo: %+v", w, st)
			}
		}(w)
	}
	wg.Wait()
}

// TestMalignantStepAllocations pins the cost of τ̂ on a state whose tree
// unfolding is far larger than its DAG: Sec 6's ((a - b?)# - c)# after
// 14 a's has 11,791 tree nodes but few distinct ones. The atoms are
// renamed on every run, so no run hits another's memo entries.
func TestMalignantStepAllocations(t *testing.T) {
	const runs, word = 10, 14
	es := make([]*expr.Expr, runs+1) // AllocsPerRun makes one extra warm-up run
	as := make([]expr.Action, runs+1)
	for i := range es {
		tag := fmt.Sprint(i)
		a, b, c := expr.AtomNamed("a"+tag), expr.AtomNamed("b"+tag), expr.AtomNamed("c"+tag)
		es[i] = expr.ParIter(expr.Seq(expr.ParIter(expr.Seq(a, expr.Option(b))), c))
		as[i] = expr.ConcreteAct("a" + tag)
	}
	run, size := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		en := MustEngine(es[run])
		for i := 0; i < word; i++ {
			if err := en.Step(as[run]); err != nil {
				t.Fatal(err)
			}
		}
		size = en.StateSize()
		run++
	})
	t.Logf("NewEngine + %d steps: %.0f allocations", word, allocs)
	if size != 11791 {
		t.Fatalf("state size after %d a's: %d, want 11791", word, size)
	}
	if allocs > 8000 {
		t.Fatalf("NewEngine + %d steps: %.0f allocations, want ≤ 8000", word, allocs)
	}
}
