package state

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/paper"
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
		"nodes": func(c *Cache) { c.internCap = 8 },
		"parts": func(c *Cache) { c.partsCap = 64 },
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
// 14 a's has 11,791 tree nodes but few distinct ones, so a step that
// built or hashed keys as long as the unfolding would show in its bytes.
// The atoms are renamed on every run, so no run hits another's memo
// entries.
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
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
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("NewEngine + %d steps: %.0f allocations, %.0f B", word, allocs, bytes)
	if size != 11791 {
		t.Fatalf("state size after %d a's: %d, want 11791", word, size)
	}
	if allocs > 2400 {
		t.Fatalf("NewEngine + %d steps: %.0f allocations, want ≤ 2,400", word, allocs)
	}
	if bytes > 600_000 {
		t.Fatalf("NewEngine + %d steps: %.0f B allocated, want ≤ 600,000", word, bytes)
	}
}

// TestFig7OpenVisitsScale: a step touches one visit's branch, so its
// allocations do not grow with the number of open visits, and its bytes
// stay bounded: a node is interned by its id, in O(arity), not by a key
// as long as the state. Each window of N open visits (openVisitRound)
// warms up for N + 50 rounds, then 100 rounds are measured.
func TestFig7OpenVisitsScale(t *testing.T) {
	const warm, rounds = 50, 100
	type cost struct{ bytes, allocs, us float64 }
	measure := func(n int) cost {
		en := MustEngine(paper.Fig7Coupled())
		k := 0
		for ; k < n+warm; k++ {
			openVisitRound(t, en, k, n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for end := k + rounds; k < end; k++ {
			openVisitRound(t, en, k, n)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		c := cost{
			bytes:  float64(after.TotalAlloc-before.TotalAlloc) / rounds,
			allocs: float64(after.Mallocs-before.Mallocs) / rounds,
			us:     float64(elapsed.Microseconds()) / rounds,
		}
		t.Logf("%d open visits: %.0f B, %.0f allocations, %.0f µs per round", n, c.bytes, c.allocs, c.us)
		return c
	}
	small, large := measure(4), measure(2048)
	if large.bytes > 2<<20 {
		t.Errorf("2,048 open visits: %.0f B per round, want ≤ 2 MiB", large.bytes)
	}
	if large.allocs > 1.3*small.allocs {
		t.Errorf("2,048 open visits: %.0f allocations per round, want ≤ 1.3 × the %.0f of 4", large.allocs, small.allocs)
	}
}

// TestInternAgreesWithKeys: two canonical nodes of one cache are one
// object exactly when their keys are equal, so ids and shapes identify
// states as keys do. The traffic is Figs 3, 6 and 7, the expressions of
// TestNestedQuantifierKeysUnchanged, and the seed and corpus expressions
// of the three fuzzers over fuzzActions words, all through one cache.
// After every step but the nested expressions' (whose keys that test
// pins), the state the plain transitions reach has the canonical
// successor's key, and interned it is that node. It
// runs again, on a share of the traffic, with every id 1, where every
// match is confirmed by comparing shapes and every order falls back to
// keys; there each word gets a cache of its own, since one id makes the
// table a list.
func TestInternAgreesWithKeys(t *testing.T) {
	t.Cleanup(func() { sameIDs = false })
	for _, collide := range []bool{false, true} {
		sameIDs = collide
		var c *Cache
		nodes := 0
		// checkTable checks c's table, which holds every canonical node
		// the cache made.
		checkTable := func() {
			if c.Stats().Flushes > 0 {
				t.Fatal("the cache flushed, so its table no longer holds every canonical node")
			}
			byKey := make(map[string]State)
			for _, n := range c.table.states() {
				k := n.Key()
				if o, ok := byKey[k]; ok && o != n {
					t.Fatalf("same ids %t: two canonical nodes have the key %s", collide, k)
				}
				byKey[k] = n
			}
			nodes += len(byKey)
		}
		for _, run := range internTraffic(t, collide) {
			if c == nil || collide {
				c = NewCache()
			}
			s, plain := c.Canon(Initial(run.e)), Initial(run.e)
			for _, a := range run.word {
				next := c.Transition(s, a)
				if run.nested {
					s = cmp.Or(next, s)
					continue
				}
				// The plain successor, made without the cache, has the
				// canonical one's key, and interned it is that node.
				if p := Trans(plain, a); next == nil || p == nil {
					if next != p {
						t.Fatalf("same ids %t: %s: %s permitted by one engine only", collide, run.e, a)
					}
				} else if s, plain = next, p; plain.Key() != s.Key() || c.Canon(plain) != s {
					t.Fatalf("same ids %t: %s after %s: canonical %s, plain %s", collide, run.e, a, s.Key(), plain.Key())
				}
			}
			if collide {
				checkTable()
			}
		}
		if !collide {
			checkTable()
		}
		t.Logf("same ids %t: %d canonical nodes", collide, nodes)
	}
}

// internRun is one expression and the word TestInternAgreesWithKeys
// drives it with.
type internRun struct {
	e      *expr.Expr
	word   []expr.Action
	nested bool
}

// internTraffic returns TestInternAgreesWithKeys's runs, a share of them
// when short.
func internTraffic(t *testing.T, short bool) []internRun {
	n := func(full, part int) int {
		if short {
			return part
		}
		return full
	}
	var runs []internRun
	figs := func(e *expr.Expr, step func(int) expr.Action) {
		w := make([]expr.Action, n(600, 60))
		for i := range w {
			w[i] = step(i)
		}
		runs = append(runs, internRun{e, w, false})
	}
	figs(paper.Fig3PatientConstraint(), fig3Step)
	figs(paper.Fig6CapacityRestriction(), fig6Step)
	figs(paper.Fig7Coupled(), fig7Step)
	// States that differ in one flag or exclusion: an iteration back at
	// σ(y) but not at a boundary, atoms with a parameter and a value of
	// one name, and the binding-exclusion regressions.
	for _, r := range [][2]string{
		{"(a* - b)*", "a a b a"},
		{"x(q) || (all q: x(q))", "x(q) x(v1) x(q)"},
		{"any p: ((x($p) || a) @ mult(2, x(v2)))", "x(v2) x(v2) a x(v2) x(v3) a"},
		{"all p0: ((x($p0) || a) @ mult(2, x(v2)))?", "x(v2) x(v2) a x(v3) a"},
	} {
		runs = append(runs, internRun{parse.MustParse(r[0]), acts(strings.Fields(r[1])...), false})
	}

	sigma := []expr.Action{
		ca("x", "v1"), ca("x", "v2"), ca("x", "v3"), ca("z", "v1", "v2"), ca("z", "v2", "v1"),
		ca("z", "v1", "v1"), ca("z", "v2", "v2"), ca("z", "v3", "v1"), ca("z", "v1", "v3"),
	}
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < n(600, 60); i++ {
		g := &nestGen{rnd: rnd}
		e := g.quant(4, []func(string, *expr.Expr) *expr.Expr{expr.AnyQ, optionalAllQ, expr.SyncQ}[rnd.Intn(3)])
		for w := 0; w < 6; w++ {
			word := make([]expr.Action, 8)
			for s := range word {
				word[s] = sigma[rnd.Intn(len(sigma))]
			}
			runs = append(runs, internRun{e, word, true})
		}
	}

	// The fuzzers' expressions: FuzzSnapshotRoundTrip's with their own
	// words, the differential fuzzers' (listed by internal/semantics)
	// with random ones.
	bytesWord := func(e *expr.Expr, b []byte) {
		cands := fuzzActions(e)
		word := make([]expr.Action, len(b))
		for i, c := range b {
			word[i] = cands[int(c)%len(cands)]
		}
		runs = append(runs, internRun{e, word, false})
	}
	for _, src := range snapshotSeeds() {
		for _, w := range snapshotSeedWords {
			bytesWord(parse.MustParse(src), w)
		}
	}
	files, _ := filepath.Glob("testdata/fuzz/FuzzSnapshotRoundTrip/*")
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		src, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		w, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: not a (string, []byte) corpus entry", f)
		}
		bytesWord(parse.MustParse(src), []byte(w))
	}
	listed, err := os.ReadFile("testdata/fuzz_exprs.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range strings.Split(strings.TrimSpace(string(listed)), "\n") {
		e := parse.MustParse(src)
		for w := 0; w < 4; w++ {
			b := make([]byte, 8)
			rnd.Read(b)
			bytesWord(e, b)
		}
	}
	return runs
}
