package state

import (
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

// TestCacheConcurrentEngines: many goroutines drive engines through one
// cache (no production engine shares one; the test wires it by hand).
// Run under -race this is the interning-table and memo-cache race check
// the CI soak job repeats: the Cache keeps its mutex.
func TestCacheConcurrentEngines(t *testing.T) {
	c := NewCache()
	c.memoCap = 1 << 10
	e := parse.MustParse("all p: (call(p) - (any q: assist(p,q)) - perform(p))*")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			en := &Engine{e: e, cur: c.Canon(Initial(e)), cache: c}
			p := "pat" + string(rune('0'+w%4)) // overlapping populations → shared states
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
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.MemoHits == 0 {
		t.Fatalf("expected cross-engine memo hits: %+v", st)
	}
}
