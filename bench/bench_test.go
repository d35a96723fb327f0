package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/parse"
	"repro/internal/storage"
)

// TestWorkloads runs every workload for a 200 ms window, untraced and
// traced, with all correctness checks on.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl.name, seed: 7, window: 200 * time.Millisecond, traced: traced, small: true}
			rec, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", wl.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d: %s",
					wl.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.CheckError)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", wl.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rec.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v (present=%t)", wl.name, traced, d.name, v, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl.name, d.name, v.Value)
				}
			}
			if traced {
				if s := rec.Metrics["trace.unattributed_share"].Value; s <= 0 || s > 0.10 {
					t.Errorf("%s: the layers' spans leave %.3f of the client-observed time unattributed", wl.name, s)
				}
				if rec.Metrics["placement.table_changes"].Value != 0 {
					t.Errorf("%s: the route table changed during the run", wl.name)
				}
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}, {10, 10}, {11, 20}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing must be 0")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(n=4),
// which is what the benchmark contract computes spreads with.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1,2,3) = %v, %v; Python gives 1, 3", q1, q3)
	}
	if s := spread([]float64{100, 100, 100, 100}); s != 0 {
		t.Errorf("spread of equal values = %v", s)
	}
}

// TestQuietQuarter: disturbed blocks must not move the result, the
// summary is the quiet quarter's, and the whole-window numbers are not.
func TestQuietQuarter(t *testing.T) {
	const blockNs = int64(blockLen)
	var samples []sample
	for b := 0; b < 8; b++ {
		n, lat := 1000, int64(100e3)
		if b%4 != 1 { // disturbed: less work, slower, by a different amount each
			n, lat = 900-10*b, int64(200e3+1e3*float64(b))
		}
		for i := 0; i < n; i++ {
			samples = append(samples, sample{done: int64(b)*blockNs + int64(i), lat: lat + int64(i%10), ops: 2})
		}
	}
	samples = append(samples, sample{done: 8 * blockNs, lat: 1, ops: 1}) // after the window: ignored
	for _, byLatency := range []bool{false, true} {
		w := summarize(samples, blockNs, 8, byLatency)
		if !w.Blocks[1].Quiet || !w.Blocks[5].Quiet || w.Samples != 2000 {
			t.Errorf("byLatency=%t: quiet quarter is not blocks 1 and 5: %+v", byLatency, w.Blocks)
		}
		if want := 2000 / blockLen.Seconds(); w.OpsPerS != want {
			t.Errorf("byLatency=%t: ops_per_s = %v, want the quiet blocks' %v", byLatency, w.OpsPerS, want)
		}
		if w.P50us < 100 || w.P50us > 100.01 || w.P90us < 100 || w.P90us > 100.01 || w.P99us < 100 || w.P99us > 100.01 {
			t.Errorf("byLatency=%t: p50 = %v, p90 = %v, p99 = %v, want the quiet blocks' ~100us", byLatency, w.P50us, w.P90us, w.P99us)
		}
		if w.WholeOpsPerS >= w.OpsPerS || w.WholeP50us < 200 || w.WholeP90us < 200 {
			t.Errorf("byLatency=%t: whole window %v op/s, p50 %v, p90 %v: must include the disturbed blocks", byLatency, w.WholeOpsPerS, w.WholeP50us, w.WholeP90us)
		}
	}
	w := summarize(samples[:800], blockNs, 8, false)
	if w.P99us != 0 {
		t.Errorf("p99 = %v: must be 0 while the quiet quarter has fewer than 1000 samples", w.P99us)
	}
	if blockCount(12*time.Second) != 8 || blockCount(200*time.Millisecond) != 4 {
		t.Errorf("blockCount: %d, %d", blockCount(12*time.Second), blockCount(200*time.Millisecond))
	}
	if traceSliceCount(12*time.Second) != 48 || traceSliceCount(200*time.Millisecond) != 4 {
		t.Errorf("traceSliceCount: %d, %d", traceSliceCount(12*time.Second), traceSliceCount(200*time.Millisecond))
	}
}

// digests builds every workload's traffic for a seed, without servers.
func digests(t *testing.T, seed int64) []string {
	t.Helper()
	var out []string
	ex := parse.MustParse(uniformSrc)
	script, err := uniformScript(rand.New(rand.NewSource(seed)), ex)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyScript(ex, script); err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	for _, s := range script {
		d.add(s)
	}
	out = append(out, d.sum())
	for _, deny := range []bool{true, false} {
		q, err := newQuasiTraffic(seed, 3, deny)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q.digest)
	}
	d = newDigester()
	g := newFig7Gen(seed, 1)
	denied := 0
	for i := 0; i < 100*fig7Block; i++ {
		s := g.at(i)
		d.add(s)
		if s.deny {
			denied++
		}
	}
	if denied != 100 {
		t.Errorf("fig7 traffic has %d denials in 1200 operations, want 1 in 12", denied)
	}
	return append(out, d.sum())
}

// TestSeedDigest: the same seed gives the same action sequences, another
// seed gives others.
func TestSeedDigest(t *testing.T) {
	a, b, c := digests(t, 1), digests(t, 1), digests(t, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("traffic %d: seed 1 gave digest %s, then %s", i, a[i], b[i])
		}
		if a[i] == c[i] {
			t.Errorf("traffic %d: seeds 1 and 2 gave the same digest %s", i, a[i])
		}
	}
	denied := 0
	script := quasiScript(rand.New(rand.NewSource(5)), 0, quasiBursts, true)
	for _, s := range script {
		if s.deny {
			denied++
		}
	}
	if len(script) != quasiBursts*burstSize || denied*16 != len(script) {
		t.Errorf("quasi script: %d operations, %d denials; want %d and 1 in 16", len(script), denied, quasiBursts*burstSize)
	}
}

// TestDecoratorTransparent: a store driven through the storage.Backend
// decorator has byte-identical files to one driven without it.
func TestDecoratorTransparent(t *testing.T) {
	drive := func(dir string, decorate bool) {
		seg, err := storage.OpenSegmented(dir, 4096)
		if err != nil {
			t.Fatal(err)
		}
		var b storage.Backend = seg
		tr := newTracer()
		tr.enabled.Store(true)
		if decorate {
			b = &tracedStore{Backend: seg, tr: tr, n: &storeCounts{}}
		}
		if _, err := b.RestoreChain(); err != nil {
			t.Fatal(err)
		}
		if err := b.Replay(func(storage.Entry) error { return nil }); err != nil {
			t.Fatal(err)
		}
		seq := uint64(0)
		for batch := 0; batch < 40; batch++ {
			for i := 0; i < 30; i++ {
				seq++
				if err := b.Buffer(storage.Entry{Name: "act", Args: []string{"p", "x"}, Seq: seq}); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.Commit(batch%2 == 0); err != nil {
				t.Fatal(err)
			}
			seq++
			if err := b.Append(storage.Entry{Name: "solo", Seq: seq}); err != nil {
				t.Fatal(err)
			}
			if batch%10 == 9 {
				if err := b.SaveCheckpoint(storage.Checkpoint{Seq: seq, Full: batch == 9, Data: []byte("checkpoint\n")}); err != nil {
					t.Fatal(err)
				}
				if err := b.CompactThrough(seq); err != nil {
					t.Fatal(err)
				}
				if err := seg.WaitCompaction(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if decorate && len(tr.spans) == 0 {
			t.Error("the decorator recorded no spans")
		}
	}
	plain, decorated := t.TempDir(), t.TempDir()
	drive(plain, false)
	drive(decorated, true)
	des, err := os.ReadDir(plain)
	if err != nil {
		t.Fatal(err)
	}
	a, errA := listing(plain)
	b, errB := listing(decorated)
	if errA != nil || errB != nil || a != b {
		t.Fatalf("file lists differ:\n%s\n%s", a, b)
	}
	if len(des) < 3 {
		t.Fatalf("only %d files: the drive did not seal or checkpoint", len(des))
	}
	for _, de := range des {
		a, err := os.ReadFile(filepath.Join(plain, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(decorated, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between the plain and the decorated store", de.Name())
		}
	}
}

// TestSelfTime: a span's self time is its duration minus the part its
// children cover, overlapping children counted once.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{start: 0, end: 100, req: 1, name: spClientOp},
		{start: 10, end: 90, req: 1, name: spManagerRequest},
		{start: 20, end: 50, req: 1, name: spStorageCommit},
		{start: 40, end: 70, req: 1, name: spStorageCheckpoint},
		{start: 95, end: 120, req: 1, name: spStorageCompact}, // runs past the client call: no parent
	}
	sum := tr.summarize()
	if got := sum.byName[spClientOp].SelfNs; got != 20 {
		t.Errorf("client self = %d, want 20", got)
	}
	if got := sum.byName[spManagerRequest].SelfNs; got != 30 {
		t.Errorf("manager self = %d, want 80 - union(20..70) = 30", got)
	}
	if got := sum.layerNs["storage"]; got != 60 {
		t.Errorf("storage self inside the client call = %d, want 60", got)
	}
	if got := sum.busyNs["storage"]; got != 50+25 {
		t.Errorf("storage busy = %d, want 75", got)
	}
}

// TestBenchmarkJSON: BENCHMARK.json names the workloads, metrics, units,
// directions and bounds this package runs.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, here %q", i, b.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, here %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestCompare(t *testing.T) {
	set := func(seed int64, ops ...float64) resultSet {
		var s resultSet
		for _, v := range ops {
			s.Runs = append(s.Runs, runRecord{detail: detail{Workload: "wire_quasi", Seed: seed},
				contractResult: contractResult{Metrics: map[string]value{"ops_per_s": {Value: v}, "latency_p50_us": {Value: 1e6 / v}}}})
		}
		return s
	}
	verdict := func(old, new resultSet, seed int64, metric string) string {
		for _, r := range compareSets(old, new) {
			if r.seed == seed && r.metric == metric {
				return r.verdict
			}
		}
		return "missing"
	}
	// A held-out run on seed 2 that reads 40% higher: pooled with seed 1
	// it would widen the old side's spread and move its median.
	base := set(1, 1000, 1010, 990)
	base.Runs = append(base.Runs, set(2, 1400).Runs...)
	for _, c := range []struct {
		new  resultSet
		want string
	}{
		{set(1, 1020, 1000, 1010), "within bound"},
		{set(1, 1400, 1410, 1390), "better"},
		{set(1, 700, 710, 690), "worse"},
		{set(1, 500, 1000, 1500), "unresolved"},
	} {
		if got := verdict(base, c.new, 1, "ops_per_s"); got != c.want {
			t.Errorf("ops_per_s %v: %s, want %s", values(c.new, "wire_quasi", 1, "ops_per_s"), got, c.want)
		}
		if got := verdict(base, c.new, 2, "ops_per_s"); got != "missing" {
			t.Errorf("seed 2 is only in the old set, yet its row reads %s", got)
		}
	}
	if got := verdict(base, set(1, 700, 710, 690), 1, "latency_p50_us"); got != "worse" {
		t.Errorf("latency: %s, want worse (lower is better)", got)
	}
	if got := verdict(base, set(2, 1000), 2, "ops_per_s"); got != "worse" {
		t.Errorf("seed 2 against seed 2: %s, want worse (1400 -> 1000)", got)
	}
}
