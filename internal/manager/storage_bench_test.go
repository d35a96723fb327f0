package manager

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/parse"
)

// BenchmarkCheckpointStorage compares the two durable-storage paths on
// a parameterized workload whose hash-consed state DAG keeps growing:
// 200 distinct interaction parties request and are acknowledged under
// "all p: (req(p) - ack(p))*". Reported per variant:
//
//	full-ckpt-B   mean byte size of a full checkpoint (the whole DAG)
//	delta-ckpt-B  mean byte size of a delta piece (segmented only —
//	              just the nodes unseen since the previous piece)
//	restart-ns    recovery time: New() on the stored directory
//
// TestDeltaCheckpointCompact gates the byte sizes, which are exact.
func BenchmarkCheckpointStorage(b *testing.B) {
	b.Run("monolithic", func(b *testing.B) { benchCheckpointStorage(b, false) })
	b.Run("segmented-delta", func(b *testing.B) { benchCheckpointStorage(b, true) })
}

// TestDeltaCheckpointCompact: on BenchmarkCheckpointStorage's growing
// DAG, a delta piece costs on average at most half a full checkpoint,
// because it holds only the nodes unseen since the previous piece.
func TestDeltaCheckpointCompact(t *testing.T) {
	c := runCheckpointWorkload(t, true)
	full, delta := c.fullB/float64(c.fullN), c.deltaB/float64(c.deltaN)
	t.Logf("full checkpoint %.0f B, delta piece %.0f B (%.2fx)", full, delta, delta/full)
	if c.fullN == 0 || c.deltaN == 0 || 2*delta > full {
		t.Fatalf("%d full checkpoints of %.0f B, %d delta pieces of %.0f B: want a mean delta ≤ half the mean full checkpoint", c.fullN, full, c.deltaN, delta)
	}
}

// checkpointRun is what one run of the checkpoint workload left on disk,
// and the time New took to recover it.
type checkpointRun struct {
	fullB, deltaB float64
	fullN, deltaN int
	restart       time.Duration
}

func benchCheckpointStorage(b *testing.B, segmented bool) {
	var sum checkpointRun
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c := runCheckpointWorkload(b, segmented)
		sum.fullB, sum.deltaB, sum.restart = sum.fullB+c.fullB, sum.deltaB+c.deltaB, sum.restart+c.restart
		sum.fullN, sum.deltaN = sum.fullN+c.fullN, sum.deltaN+c.deltaN
	}
	b.StopTimer()
	if sum.fullN > 0 {
		b.ReportMetric(sum.fullB/float64(sum.fullN), "full-ckpt-B")
	}
	if segmented && sum.deltaN > 0 {
		b.ReportMetric(sum.deltaB/float64(sum.deltaN), "delta-ckpt-B")
	}
	b.ReportMetric(float64(sum.restart.Nanoseconds())/float64(b.N), "restart-ns")
}

// runCheckpointWorkload runs the workload once in a fresh directory,
// with a checkpoint every 20 actions and, segmented, a full base every
// 8th checkpoint.
func runCheckpointWorkload(tb testing.TB, segmented bool) checkpointRun {
	const parties = 200
	e := parse.MustParse("all p: (req(p) - ack(p))*")
	var workload []expr.Action
	for i := 0; i < parties; i++ {
		workload = append(workload, expr.ConcreteAct("req", fmt.Sprintf("p%d", i)))
	}
	for i := 0; i < parties; i++ {
		workload = append(workload, expr.ConcreteAct("ack", fmt.Sprintf("p%d", i)))
	}

	var c checkpointRun
	dir := tb.TempDir()
	opts := Options{SnapshotEvery: 20, BatchMaxSize: 16}
	if segmented {
		opts.StorageDir = filepath.Join(dir, "store")
		opts.FullCheckpointEvery = 8
	} else {
		opts.LogPath = filepath.Join(dir, "actions.log")
		opts.SnapshotPath = filepath.Join(dir, "state.snap")
	}
	m, err := New(e, opts)
	if err != nil {
		tb.Fatal(err)
	}
	for at := 0; at < len(workload); at += 16 {
		end := at + 16
		if end > len(workload) {
			end = len(workload)
		}
		for _, err := range m.RequestMany(context.Background(), workload[at:end]) {
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := m.Close(); err != nil {
		tb.Fatal(err)
	}

	// Close waited out compaction: only the live restore chain (or
	// the single snapshot file) remains on disk.
	if segmented {
		c.fullB = globBytes(tb, &c.fullN, filepath.Join(opts.StorageDir, "*.full"))
		c.deltaB = globBytes(tb, &c.deltaN, filepath.Join(opts.StorageDir, "*.delta"))
	} else {
		c.fullB = globBytes(tb, &c.fullN, opts.SnapshotPath)
	}

	start := time.Now()
	m2, err := New(e, opts)
	if err != nil {
		tb.Fatal(err)
	}
	c.restart = time.Since(start)
	if err := m2.Close(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// globBytes sums the sizes of the files matching pattern, counting them
// into n.
func globBytes(tb testing.TB, n *int, pattern string) float64 {
	tb.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil {
		tb.Fatal(err)
	}
	var total float64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			tb.Fatal(err)
		}
		total += float64(st.Size())
		*n++
	}
	return total
}

// TestRecoveryAllocations gates the storage read path on the image the
// recover_replay benchmark restarts from: 10,000 actions of a two-operand
// parallel expression on segmented storage, a full checkpoint at 4,000,
// a delta at 8,000 and a crash, so the restart restores the chain and
// reads the whole log, 8,000 of its entries already covered. Decoding
// a record allocates nothing but its argument values, so a restart
// costs a few hundred allocations, where encoding/json cost five per
// entry.
func TestRecoveryAllocations(t *testing.T) {
	const steps = 10000
	e := parse.MustParse("((a0 - b0) | b0)* || ((a1 - b1) | b1)*")
	opts := Options{StorageDir: filepath.Join(t.TempDir(), "image"), BatchMaxSize: 64,
		SnapshotEvery: 4000, FullCheckpointEvery: 8}
	m := MustNew(e, opts)
	// Each operand cycles through "a b b": a pair, then a lone b.
	var burst []expr.Action
	for i := 0; i < steps; i++ {
		c, k := i%2, (i/2)%3
		name := fmt.Sprintf("b%d", c)
		if k == 0 {
			name = fmt.Sprintf("a%d", c)
		}
		burst = append(burst, expr.ConcreteAct(name))
		if len(burst) == 32 || i == steps-1 {
			for _, err := range m.RequestMany(context.Background(), burst) {
				if err != nil {
					t.Fatalf("writing the image: %v", err)
				}
			}
			burst = burst[:0]
		}
	}
	key := m.StateKey()
	m.crashForTest()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(3, func() {
		r, err := New(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.Steps() != steps || r.StateKey() != key {
			t.Fatalf("recovered %d steps, want %d; state keys equal: %t", r.Steps(), steps, r.StateKey() == key)
		}
		r.crashForTest()
	})
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 4 // AllocsPerRun makes one extra warm-up run
	t.Logf("a restart allocates %.0f times, %.0f B", allocs, bytes)
	if allocs > 1500 {
		t.Fatalf("a restart allocates %.0f times, want at most 1,500", allocs)
	}
	// 75 KB when one of the four runs takes a new line-scanner buffer,
	// 56 KB when all reuse one; 124 KB when every replay made its own.
	// The buffers come from a sync.Pool, whose Puts the race detector
	// drops at random (103 KB in 3 of 6 -race runs), so only a plain
	// build holds the byte bound.
	if bytes > 94_000 {
		if raceBuild {
			t.Logf("a restart allocates %.0f B, over 94,000; not a failure under the race detector", bytes)
		} else {
			t.Fatalf("a restart allocates %.0f B, want at most 94,000", bytes)
		}
	}
}
