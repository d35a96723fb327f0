package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// the nearest-rank rule: the smallest value with at least p% of the
// samples at or below it. Nearest rank never interpolates, so a
// reported latency is always one that was actually observed.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of vs (mean of the middle pair for an even
// count); 0 for no values. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the exclusive method),
// which is the rule the benchmark contract judges spreads by. It needs
// two values or more.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vs as a share of their
// median; 0 when fewer than two values make quartiles undefined.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// sample is one completed client call: when it completed (ns since the
// phase began), how long the caller waited, and how many operations it
// carried (a RequestMany burst carries 32, each with the burst's
// latency).
type sample struct {
	done int64
	lat  int64
	ops  int32
}

// blockStat is one block of the measured window.
type blockStat struct {
	Ops     int     `json:"ops"`
	Samples int     `json:"samples"`
	P50us   float64 `json:"p50_us"`
	P90us   float64 `json:"p90_us"`
	Quiet   bool    `json:"quiet,omitempty"`
}

// windowStat summarizes one measured window by its quiet quarter.
//
// The window is cut into blocks of blockLen. What disturbs a run in this
// sandbox is one-sided: a neighbour on the host, a disk stall or the
// hypervisor can only take time away from a block, never add work to
// it, and whole runs of the median block spread by 13-27% here. So the
// summary is taken over the quarter of the blocks that were disturbed
// least: those in which the most operations completed (closed loop) or
// whose p90 latency was lowest (open loop, where every block completes
// the same number and a disturbance shows in the tail first). ops_per_s
// is their mean rate and the latency percentiles are over their pooled
// samples.
//
// A block is longer than the longest cycle of work any workload's
// program does on its own: durable_quasi writes a full checkpoint and
// compacts every 160,000 operations, about every 1.1 s (within a block
// down to 107,000 op/s); delta checkpoints, segment seals and GC cycles
// come round faster. So every block, the quiet ones too, holds each
// kind of stall the program causes itself, and the ranking cannot sort
// those stalls out of the result; a slice shorter than such a cycle
// could. The Whole* fields are the same numbers over every block, for a
// reader who wants to see what the selection left out.
type windowStat struct {
	OpsPerS      float64     `json:"ops_per_s"`
	P50us        float64     `json:"p50_us"`
	P90us        float64     `json:"p90_us"`
	P99us        float64     `json:"p99_us"`  // 0 unless the quiet quarter has >= 1000 samples
	Ops          int         `json:"ops"`     // in the whole window
	Samples      int         `json:"samples"` // latency samples in the quiet quarter
	WholeOpsPerS float64     `json:"whole_ops_per_s"`
	WholeP50us   float64     `json:"whole_p50_us"`
	WholeP90us   float64     `json:"whole_p90_us"`
	Blocks       []blockStat `json:"blocks"`
}

// blockLen is the block a window is cut into.
const blockLen = 1500 * time.Millisecond

// blockCount is how many whole blocks fit the window (at least four, so
// that a test's short window still has a quarter).
func blockCount(window time.Duration) int {
	if n := int(window / blockLen); n > 4 {
		return n
	}
	return 4
}

// traceSliceLen is the slice a traced run's window is cut into: the
// tracer is off on the even slices and on on the odd ones.
const traceSliceLen = 250 * time.Millisecond

// traceSliceCount is how many whole slices fit the window (at least
// four, so that a test's short window still has two of each kind).
func traceSliceCount(window time.Duration) int {
	if n := int(window / traceSliceLen); n > 4 {
		return n
	}
	return 4
}

func sortInt64s(v []int64) { sort.Slice(v, func(a, b int) bool { return v[a] < v[b] }) }

// summarize cuts the samples into n blocks of blockNs and summarizes the
// quiet quarter: ranked by operations completed, or with byLatency by
// p90 latency. Samples completing at or after n*blockNs are ignored.
func summarize(samples []sample, blockNs int64, n int, byLatency bool) windowStat {
	lats := make([][]int64, n)
	w := windowStat{Blocks: make([]blockStat, n)}
	for _, s := range samples {
		i := int(s.done / blockNs)
		if s.done < 0 || i >= n {
			continue
		}
		lats[i] = append(lats[i], s.lat)
		w.Blocks[i].Ops += int(s.ops)
	}
	order := make([]int, n)
	var whole []int64
	for i := range order {
		order[i] = i
		sortInt64s(lats[i])
		st := &w.Blocks[i]
		st.Samples = len(lats[i])
		st.P50us = float64(percentile(lats[i], 50)) / 1e3
		st.P90us = float64(percentile(lats[i], 90)) / 1e3
		w.Ops += st.Ops
		whole = append(whole, lats[i]...)
	}
	sortInt64s(whole)
	w.WholeOpsPerS = float64(w.Ops) / float64(n) / (float64(blockNs) / 1e9)
	w.WholeP50us = float64(percentile(whole, 50)) / 1e3
	w.WholeP90us = float64(percentile(whole, 90)) / 1e3
	sort.SliceStable(order, func(a, b int) bool {
		x, y := &w.Blocks[order[a]], &w.Blocks[order[b]]
		if byLatency && x.Samples > 0 && y.Samples > 0 {
			return x.P90us < y.P90us
		}
		return x.Ops > y.Ops // a block that completed nothing ranks last either way
	})
	quiet := order[:(n+3)/4]
	var pooled []int64
	ops := 0
	for _, i := range quiet {
		w.Blocks[i].Quiet = true
		pooled = append(pooled, lats[i]...)
		ops += w.Blocks[i].Ops
	}
	sortInt64s(pooled)
	w.Samples = len(pooled)
	w.OpsPerS = float64(ops) / float64(len(quiet)) / (float64(blockNs) / 1e9)
	w.P50us = float64(percentile(pooled, 50)) / 1e3
	w.P90us = float64(percentile(pooled, 90)) / 1e3
	if len(pooled) >= 1000 {
		w.P99us = float64(percentile(pooled, 99)) / 1e3
	}
	return w
}
