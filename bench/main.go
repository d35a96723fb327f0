// Command bench is the repo's one performance harness: six workloads,
// six end-to-end metrics each, and a per-layer budget from a separate
// traced run. See README.md in this directory.
//
//	bash bench/run.sh                      every workload, untraced then traced
//	bash bench/run.sh -workload wire_quasi -seed 3
//	bash bench/run.sh -workload wire_quasi -traced -trace-out spans.jsonl
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -aa
//
// With -workload it runs that workload in this process and prints the
// benchmark contract's result object as the last line of its output.
// Without, it runs every workload in a child process of its own, so
// heap and GC state do not leak from one workload into the next.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// value is one metric as the contract prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractResult is the last line of a single-workload run: exactly the
// keys the benchmark contract names.
type contractResult struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is what a run prints before the contract line: what was run
// and what the numbers rest on.
type detail struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Traced       bool               `json:"traced"`
	WindowS      float64            `json:"window_s"`
	Nproc        int                `json:"nproc"`
	Go           string             `json:"go"`
	Clients      int                `json:"clients"`
	WarmupCalls  int                `json:"warmup_calls_per_client"`
	Info         instanceInfo       `json:"info"`
	SetupsS      []float64          `json:"setups_s"`
	Saturation   *windowStat        `json:"saturation,omitempty"`
	Paced        *windowStat        `json:"paced,omitempty"`
	Pace         *paceStat          `json:"pace,omitempty"`
	Unresolved   []string           `json:"unresolved,omitempty"`
	LayerSelfUs  map[string]float64 `json:"layer_self_us_per_call,omitempty"`
	ClientOpUs   float64            `json:"client_call_us,omitempty"`
	SpansDropped int                `json:"spans_dropped,omitempty"`
	CheckError   string             `json:"check_error,omitempty"`
}

// runRecord is one run as result files keep it.
type runRecord struct {
	detail
	contractResult
}

// runOne runs one workload in this process.
func runOne(cfg config) (runRecord, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return runRecord{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	tmp, err := os.MkdirTemp("", "ixbench-")
	if err != nil {
		return runRecord{}, err
	}
	defer os.RemoveAll(tmp)
	// One deadline for the whole run: an operation that hangs fails when
	// it passes, instead of paying for a context per operation.
	ctx, cancel := context.WithTimeout(context.Background(), 6*cfg.window+120*time.Second)
	defer cancel()
	e := &env{cfg: cfg, clients: clientCount(), tmp: tmp, ctx: ctx}
	if wl.oneCaller {
		e.clients = 1
	}
	e.warmup = wl.warmup
	if cfg.small {
		e.warmup = wl.warmup/16 + 1
	}
	if cfg.traced {
		e.tr = newTracer()
	}
	inst, rate, setups, err := repeatSetup(e, wl)
	if err != nil {
		return runRecord{}, err
	}
	rec := runRecord{detail: detail{Workload: wl.name, Seed: cfg.seed, Traced: cfg.traced, WindowS: cfg.window.Seconds(),
		Nproc: runtime.NumCPU(), Go: runtime.Version(), Clients: e.clients, WarmupCalls: e.warmup, Info: inst.info(), SetupsS: setups}}
	var metricsOut map[string]float64
	var defs []metricDef
	if cfg.traced {
		defs = perLayer
		metricsOut, err = runTraced(e, wl, inst, rate, &rec)
	} else {
		defs = endToEnd
		metricsOut = runUntraced(e, wl, inst, rate, &rec)
		metricsOut["setup_s"] = median(setups)
	}
	if err == nil {
		err = inst.check()
	}
	if cerr := inst.close(); err == nil && cerr != nil {
		err = fmt.Errorf("tear-down: %w", cerr)
	}
	rec.Correct = err == nil && rec.Failed == 0
	if err != nil {
		rec.CheckError = err.Error()
	}
	rec.Metrics = map[string]value{}
	for _, d := range defs {
		rec.Metrics[d.name] = value{Value: metricsOut[d.name], Unit: d.unit}
	}
	return rec, nil
}

// runUntraced measures the end-to-end metrics: a closed-loop
// saturation window and, for a paced workload, an open-loop window of
// the same length that the latencies come from.
func runUntraced(e *env, wl workloadDef, inst instance, rate float64, rec *runRecord) map[string]float64 {
	sat := runClosed(e, inst, e.cfg.window, rate, false, nil)
	rec.Attempted, rec.Failed = sat.attempted, sat.failed
	rec.Saturation = &sat.stat
	ops := sat.attempted - sat.failed
	m := map[string]float64{
		"ops_per_s":          sat.stat.OpsPerS,
		"latency_p50_us":     sat.stat.P50us,
		"latency_p90_us":     sat.stat.P90us,
		"allocs_per_op":      perOp(float64(sat.mallocs), ops),
		"alloc_bytes_per_op": perOp(float64(sat.bytes), ops),
	}
	if wl.paced {
		paced := runPaced(e, inst, e.cfg.window, pacedRate)
		rec.Attempted += paced.attempted
		rec.Failed += paced.failed
		rec.Paced, rec.Pace = &paced.stat, &paced.pace
		m["latency_p50_us"], m["latency_p90_us"] = paced.stat.P50us, paced.stat.P90us
		// A generator that runs late measures itself, not the system.
		if paced.pace.GenLateUs > 0.10*paced.stat.P50us {
			rec.Unresolved = append(rec.Unresolved, "latency_p50_us", "latency_p90_us")
		}
	}
	return m
}

// runTraced measures the per-layer metrics with one request in flight
// in total. The window is cut into traceSliceLen slices that alternate:
// tracer off on the even ones, on on the odd ones. The off slices are
// the base the tracing overhead is taken against, and taking turns
// cancels any drift over the run. (Two separate phases do not: a
// single-flight loop over loopback runs in one of two scheduler modes,
// 30% apart, and a phase tends to stay in the one it started in.)
func runTraced(e *env, wl workloadDef, inst instance, rate float64, rec *runRecord) (map[string]float64, error) {
	slices := traceSliceCount(e.cfg.window)
	sliceNs := int64(e.cfg.window) / int64(slices)
	in := &layerInput{pr: &e.pr, d: counters{}}
	var c0 counters
	var p0 procReading
	var denied0 int64
	// toggle runs between two calls, so no request is in flight.
	toggle := func(slice int) {
		if e.tr.on() {
			e.tr.enabled.Store(false)
			in.proc.add(p0, readProc())
			for k, v := range e.pr.read().minus(c0) {
				in.d[k] += v
			}
			_, denied1, _ := inst.totals()
			in.deniedOps += denied1 - denied0
		}
		if slice%2 == 1 && slice < slices {
			_, denied0, _ = inst.totals()
			c0, p0 = e.pr.read(), readProc()
			e.tr.enabled.Store(true)
			in.window += float64(sliceNs) / 1e9
		}
	}
	// One goroutine takes every client's turn.
	ph := runClosed(e, inst, e.cfg.window, rate*float64(e.clients), true, toggle)
	toggle(slices)
	// Each side is summarized by its median slice. The p99 is reported
	// only with ten samples or more beyond it.
	onOps, offOps := make([]float64, slices/2), make([]float64, (slices+1)/2)
	var onLats []int64
	for _, s := range ph.samples {
		switch i := s.done / sliceNs; {
		case i >= int64(slices):
		case i%2 == 1:
			onOps[i/2] += float64(s.ops)
			onLats = append(onLats, s.lat)
			in.ops += int64(s.ops)
		default:
			offOps[i/2] += float64(s.ops)
		}
	}
	in.tracedOpsPerS = median(onOps) / (float64(sliceNs) / 1e9)
	in.untracedOpsPerS = median(offOps) / (float64(sliceNs) / 1e9)
	if len(onLats) >= 1000 {
		sortInt64s(onLats)
		in.p99us = float64(percentile(onLats, 99)) / 1e3
	}
	rec.Attempted, rec.Failed = ph.attempted, ph.failed
	rec.Saturation = &ph.stat
	if wl.paced {
		paced := runPaced(e, inst, e.cfg.window/2, pacedRate)
		in.paced = &paced
		rec.Attempted += paced.attempted
		rec.Failed += paced.failed
		rec.Paced, rec.Pace = &paced.stat, &paced.pace
	}
	plan := inst.shadow()
	// Tests replay a short prefix, a whole number of admit_malignant words.
	if e.cfg.small && len(plan.acts) > 10*malignantWord {
		plan.acts = plan.acts[:10*malignantWord]
	}
	var err error
	if in.shadow, err = runShadow(plan); err != nil {
		return nil, fmt.Errorf("state shadow pass: %w", err)
	}
	in.parseUs = parseUs(plan)
	in.ts = e.tr.summarize()
	m := layerMetrics(in)
	if r, ok := inst.(interface{ routes() (float64, float64) }); ok {
		m["cluster.shards_per_op"], m["cluster.cross_shard_share"] = r.routes()
	}
	rec.LayerSelfUs = map[string]float64{}
	for l, ns := range in.ts.layerNs {
		rec.LayerSelfUs[l] = perOp(float64(ns)/1e3, int64(in.ts.roots))
	}
	rec.ClientOpUs = perOp(float64(in.ts.rootNs)/1e3, int64(in.ts.roots))
	rec.SpansDropped = in.ts.dropped
	if e.cfg.traceOut != "" {
		if err := e.tr.writeTo(e.cfg.traceOut); err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
	}
	return m, nil
}

func main() {
	var cfg config
	var seconds, trace, runs int
	var compare, aa bool
	var out, label string
	flag.StringVar(&cfg.workload, "workload", "", "run only this workload, in this process")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.DurationVar(&cfg.window, "window", 12*time.Second, "measured window, cut into 1.5 s blocks")
	flag.IntVar(&seconds, "seconds", 0, "the measured window in whole seconds (overrides -window)")
	flag.BoolVar(&cfg.traced, "traced", false, "traced run: per-layer metrics, one request in flight in total")
	flag.IntVar(&trace, "trace", 0, "1 is -traced, 0 is not")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "write a traced run's spans to this file, one JSON object per line")
	flag.IntVar(&runs, "runs", 1, "without -workload: runs of every workload")
	flag.StringVar(&out, "out", "", "without -workload: write the runs to this result file")
	flag.StringVar(&label, "label", "", "commit id or other label to keep in the result file")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.BoolVar(&aa, "aa", false, "run two sets of three runs of this tree and compare them")
	flag.Parse()
	if seconds > 0 {
		cfg.window = time.Duration(seconds) * time.Second
	}
	cfg.traced = cfg.traced || trace == 1

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case aa:
		os.Exit(runAA(cfg))
	case cfg.workload != "":
		rec, err := runOne(cfg)
		if err != nil {
			fatal(err)
		}
		printRun(rec)
		if !rec.Correct {
			os.Exit(1)
		}
	default:
		set, err := runAll(cfg, runs, true)
		set.Label = label
		if out != "" {
			if werr := writeSet(out, set); err == nil {
				err = werr
			}
		}
		if err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// printRun prints the detail line, then the contract's result object as
// the last line.
func printRun(rec runRecord) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(struct {
		Detail detail `json:"detail"`
	}{rec.detail}); err != nil {
		fatal(err)
	}
	if rec.CheckError != "" {
		fmt.Fprintln(os.Stderr, "bench: correctness:", rec.CheckError)
	}
	if err := enc.Encode(rec.contractResult); err != nil {
		fatal(err)
	}
}

// resultSet is a result file: runs of one tree on one machine.
type resultSet struct {
	Label   string      `json:"label,omitempty"`
	Nproc   int         `json:"nproc"`
	Go      string      `json:"go"`
	WindowS float64     `json:"window_s"`
	Runs    []runRecord `json:"runs"`
}

func writeSet(path string, set resultSet) error {
	buf, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readSet(path string) (resultSet, error) {
	var set resultSet
	buf, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(buf, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// runChild runs one workload in a child process and parses its two
// result lines.
func runChild(cfg config) (runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return runRecord{}, err
	}
	args := []string{"-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed), "-window", cfg.window.String()}
	if cfg.traced {
		args = append(args, "-traced")
		if cfg.traceOut != "" {
			args = append(args, "-trace-out", cfg.traceOut+"."+cfg.workload)
		}
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if len(lines) < 2 {
		return runRecord{}, fmt.Errorf("%s: no result (%v)", cfg.workload, runErr)
	}
	var rec runRecord
	var d struct {
		Detail detail `json:"detail"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &d); err != nil {
		return rec, fmt.Errorf("%s: detail line: %w", cfg.workload, err)
	}
	rec.detail = d.Detail
	if err := json.Unmarshal(lines[len(lines)-1], &rec.contractResult); err != nil {
		return rec, fmt.Errorf("%s: result line: %w", cfg.workload, err)
	}
	return rec, nil
}

// runAll runs every workload runs times, untraced and (withTraced)
// traced, each in its own child process, and prints every metric by
// name and unit. It returns an error if any run was incorrect.
func runAll(cfg config, runs int, withTraced bool) (resultSet, error) {
	set := resultSet{Nproc: runtime.NumCPU(), Go: runtime.Version(), WindowS: cfg.window.Seconds()}
	var bad []string
	for r := 0; r < runs; r++ {
		for _, wl := range workloads {
			for _, traced := range []bool{false, true} {
				if traced && !withTraced {
					continue
				}
				c := cfg
				c.workload, c.traced = wl.name, traced
				rec, err := runChild(c)
				if err != nil {
					return set, err
				}
				set.Runs = append(set.Runs, rec)
				printTable(rec)
				if !rec.Correct {
					bad = append(bad, wl.name)
				}
			}
		}
	}
	if len(bad) > 0 {
		return set, fmt.Errorf("incorrect runs: %s", strings.Join(bad, ", "))
	}
	return set, nil
}

// printTable prints one run's metrics by name and unit.
func printTable(rec runRecord) {
	kind := "end to end, untraced"
	if rec.Traced {
		kind = "per layer, traced, one request in flight"
	}
	fmt.Printf("\n== %s  seed %d  (%s)  correct=%t attempted=%d failed=%d  digest %s\n",
		rec.Workload, rec.Seed, kind, rec.Correct, rec.Attempted, rec.Failed, rec.Info.Digest)
	if rec.Info.Policy != "" {
		fmt.Printf("   %s\n", rec.Info.Policy)
	}
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := rec.Metrics[d.name]
		if rec.Traced && v.Value == 0 {
			continue // a layer this workload does not exercise
		}
		note := ""
		for _, u := range rec.Unresolved {
			if u == d.name {
				note = "  (unresolved: the generator ran late)"
			}
		}
		fmt.Printf("   %-30s %14.4f %s%s\n", d.name, v.Value, v.Unit, note)
	}
	if rec.Traced {
		fmt.Printf("   layer self time per client call (us): ")
		for _, l := range sortedKeys(rec.LayerSelfUs) {
			fmt.Printf("%s=%.2f ", l, rec.LayerSelfUs[l])
		}
		fmt.Printf(" client call = %.2f\n", rec.ClientOpUs)
	}
}
