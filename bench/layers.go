package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/manager"
	"repro/internal/parse"
	"repro/internal/placement"
	"repro/internal/state"
)

// metricDef names one metric of BENCHMARK.json; bench_test.go checks
// the two lists agree.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is what a user of the system sees: handlers and engines wait
// for ask -> committed reply, operators wait for a restarted manager to
// serve again, and both pay for CPU and memory per admitted action. The
// timing bounds are the widest the contract allows: on the shared host
// this was built on, ten seeds of one commit spread by up to 20% while
// the host had neighbours (cluster_fig7's paced latencies by more), see
// README.md "Steadiness".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p90_us", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
}

// perLayer is every layer's metrics, named by module. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{name: "client.ops", unit: "count", better: "higher"},
	{name: "client.denied_share", unit: "share", better: "lower"},
	{name: "client.latency_p99_us", unit: "us", better: "lower"},
	{name: "client.gen_late_us", unit: "us", better: "lower"},
	{name: "client.backlog_max", unit: "count", better: "lower"},
	{name: "client.paced_completed_share", unit: "share", better: "higher"},
	{name: "parse.parse_us", unit: "us", better: "lower"},
	{name: "state.try_us", unit: "us", better: "lower"},
	{name: "state.step_us", unit: "us", better: "lower"},
	{name: "state.steps", unit: "count", better: "higher"},
	{name: "state.allocs_per_step", unit: "count", better: "lower"},
	{name: "state.size_nodes", unit: "count", better: "lower"},
	{name: "state.size_nodes_max", unit: "count", better: "lower"},
	{name: "state.memo_hit_ratio", unit: "share", better: "higher"},
	{name: "state.memo_entries", unit: "count", better: "lower"},
	{name: "state.nodes_interned", unit: "count", better: "lower"},
	{name: "manager.request_us", unit: "us", better: "lower"},
	{name: "manager.self_us", unit: "us", better: "lower"},
	{name: "manager.new_us", unit: "us", better: "lower"},
	{name: "manager.close_us", unit: "us", better: "lower"},
	{name: "manager.asks", unit: "count", better: "higher"},
	{name: "manager.grants", unit: "count", better: "higher"},
	{name: "manager.denies", unit: "count", better: "lower"},
	{name: "manager.confirms", unit: "count", better: "higher"},
	{name: "manager.aborts", unit: "count", better: "lower"},
	{name: "manager.transits", unit: "count", better: "higher"},
	{name: "manager.snapshots", unit: "count", better: "lower"},
	{name: "manager.batch_ops_mean", unit: "count", better: "higher"},
	{name: "storage.buffer_us", unit: "us", better: "lower"},
	{name: "storage.commit_us", unit: "us", better: "lower"},
	{name: "storage.commits", unit: "count", better: "lower"},
	{name: "storage.entries", unit: "count", better: "higher"},
	{name: "storage.entries_per_commit", unit: "count", better: "higher"},
	{name: "storage.checkpoint_us", unit: "us", better: "lower"},
	{name: "storage.checkpoints", unit: "count", better: "lower"},
	{name: "storage.checkpoint_full_share", unit: "share", better: "lower"},
	{name: "storage.compact_us", unit: "us", better: "lower"},
	{name: "storage.log_bytes_per_op", unit: "B", better: "lower"},
	{name: "storage.ckpt_bytes_per_op", unit: "B", better: "lower"},
	{name: "storage.restore_chain_us", unit: "us", better: "lower"},
	{name: "storage.replay_us", unit: "us", better: "lower"},
	{name: "storage.replay_entries", unit: "count", better: "lower"},
	{name: "storage.chain_pieces", unit: "count", better: "lower"},
	{name: "storage.busy_share", unit: "share", better: "lower"},
	{name: "repl.ack_rtt_us", unit: "us", better: "lower"},
	{name: "repl.frames", unit: "count", better: "lower"},
	{name: "repl.ops_per_frame", unit: "count", better: "higher"},
	{name: "repl.bytes_per_op", unit: "B", better: "lower"},
	{name: "repl.follower_apply_us", unit: "us", better: "lower"},
	{name: "repl.lag_steps_max", unit: "count", better: "lower"},
	{name: "repl.resyncs", unit: "count", better: "lower"},
	{name: "wire.rtt_us", unit: "us", better: "lower"},
	{name: "wire.bytes_out_per_op", unit: "B", better: "lower"},
	{name: "wire.bytes_in_per_op", unit: "B", better: "lower"},
	{name: "wire.writes_per_op", unit: "count", better: "lower"},
	{name: "wire.reads_per_op", unit: "count", better: "lower"},
	{name: "cluster.request_us", unit: "us", better: "lower"},
	{name: "cluster.self_us", unit: "us", better: "lower"},
	{name: "cluster.shard_rtt_us", unit: "us", better: "lower"},
	{name: "cluster.exchanges_per_op", unit: "count", better: "lower"},
	{name: "cluster.shards_per_op", unit: "count", better: "lower"},
	{name: "cluster.cross_shard_share", unit: "share", better: "lower"},
	{name: "cluster.reserve_rtt_us", unit: "us", better: "lower"},
	{name: "cluster.confirm_rtt_us", unit: "us", better: "lower"},
	{name: "cluster.refused_share", unit: "share", better: "lower"},
	{name: "cluster.shard_bytes_per_op", unit: "B", better: "lower"},
	{name: "placement.table_changes", unit: "count", better: "lower"},
	{name: "proc.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_cpu_share", unit: "share", better: "lower"},
	{name: "proc.gc_pause_us_max", unit: "us", better: "lower"},
	{name: "proc.heap_peak_mb", unit: "MB", better: "lower"},
	{name: "proc.goroutines_max", unit: "count", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.overhead_share", unit: "share", better: "lower"},
	{name: "trace.unattributed_share", unit: "share", better: "lower"},
}

// probes are the handles a traced run reads counts from: the counts its
// decorators take, and the Stats, CacheStats, Route and Traces the
// program already offers.
type probes struct {
	store, followerStore storeCounts
	wire, shard, repl    connCounts
	primaries, followers []*manager.Manager
	gateway              *cluster.Gateway
	table                *placement.RouteTable
	logBytesPerEntry     float64

	mu      sync.Mutex
	retired manager.Stats // Stats of managers an operation built and closed
}

// retire folds the Stats of a manager that is about to close into the
// totals.
func (p *probes) retire(m *manager.Manager) {
	st := m.Stats()
	p.mu.Lock()
	addStats(&p.retired, st)
	p.mu.Unlock()
}

func addStats(to *manager.Stats, st manager.Stats) {
	to.Asks += st.Asks
	to.Grants += st.Grants
	to.Denies += st.Denies
	to.Confirms += st.Confirms
	to.Aborts += st.Aborts
	to.Transits += st.Transits
	to.Snapshots += st.Snapshots
	to.ReplFrames += st.ReplFrames
	to.ReplResyncs += st.ReplResyncs
}

// counters is one reading of every cumulative count; a traced phase is
// the difference of two readings.
type counters map[string]float64

func (p *probes) read() counters {
	c := counters{}
	p.mu.Lock()
	prim := p.retired
	p.mu.Unlock()
	for _, m := range p.primaries {
		addStats(&prim, m.Stats())
	}
	var fol manager.Stats
	for _, m := range p.followers {
		addStats(&fol, m.Stats())
	}
	c["asks"], c["grants"], c["denies"] = float64(prim.Asks), float64(prim.Grants), float64(prim.Denies)
	c["confirms"], c["aborts"], c["transits"] = float64(prim.Confirms), float64(prim.Aborts), float64(prim.Transits)
	c["snapshots"] = float64(prim.Snapshots)
	c["repl_frames"], c["repl_resyncs"] = float64(fol.ReplFrames), float64(fol.ReplResyncs)
	s := &p.store
	c["entries"], c["commits"], c["appends"] = float64(s.entries.Load()), float64(s.commits.Load()), float64(s.appends.Load())
	c["checkpoints"], c["full_checkpoints"] = float64(s.checkpoints.Load()), float64(s.fullCheckpoints.Load())
	c["ckpt_bytes"] = float64(s.ckptBytes.Load())
	c["replay_entries"], c["restored_pieces"] = float64(s.replayEntries.Load()), float64(s.restoredPieces.Load())
	for name, n := range map[string]*connCounts{"wire": &p.wire, "shard": &p.shard, "repl": &p.repl} {
		c[name+"_out"], c[name+"_in"] = float64(n.bytesOut.Load()), float64(n.bytesIn.Load())
		c[name+"_writes"], c[name+"_reads"] = float64(n.writes.Load()), float64(n.reads.Load())
		c[name+"_exchanges"] = float64(n.exchanges.Load())
	}
	if p.table != nil {
		c["table_gen"] = float64(p.table.Gen())
	}
	return c
}

func (c counters) minus(d counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - d[k]
	}
	return out
}

// --- proc ----------------------------------------------------------------------

// procReading is the Go runtime's and the kernel's account of the
// process, cumulative since it started.
type procReading struct {
	cpu        time.Duration // user + system, getrusage
	gcCPU      float64       // seconds
	allCPU     float64       // seconds
	numGC      uint32
	pauses     [256]uint64
	heapSys    uint64 // high-water mark of heap memory obtained from the OS
	goroutines int
}

func readProc() procReading {
	var r procReading
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.allCPU = s[1].Value.Float64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.numGC, r.pauses, r.heapSys = ms.NumGC, ms.PauseNs, ms.HeapSys
	r.goroutines = runtime.NumGoroutine()
	return r
}

// procUse is what the process used over the traced slices of a run.
type procUse struct {
	cpu           time.Duration
	gcCPU, allCPU float64
	gcCycles      uint32
	pauseMaxNs    uint64
	heapSys       uint64
	goroutines    int
}

// add folds in the interval between two readings.
func (u *procUse) add(from, to procReading) {
	u.cpu += to.cpu - from.cpu
	u.gcCPU += to.gcCPU - from.gcCPU
	u.allCPU += to.allCPU - from.allCPU
	u.gcCycles += to.numGC - from.numGC
	for n := from.numGC + 1; n <= to.numGC && n-from.numGC <= 256; n++ {
		if p := to.pauses[(n+255)%256]; p > u.pauseMaxNs {
			u.pauseMaxNs = p
		}
	}
	if to.heapSys > u.heapSys {
		u.heapSys = to.heapSys
	}
	for _, g := range []int{from.goroutines, to.goroutines} {
		if g > u.goroutines {
			u.goroutines = g
		}
	}
}

// --- state shadow pass -------------------------------------------------------------

// shadowStat prices the state layer alone: the same action sequence fed
// straight to state.NewEngine + Try/Step.
type shadowStat struct {
	tryUs, stepUs, allocsPerStep float64
	steps, size, sizeMax         int
}

func runShadow(p shadowPlan) (shadowStat, error) {
	var st shadowStat
	if p.e == nil || len(p.acts) == 0 {
		return st, nil
	}
	en, err := state.NewEngine(p.e)
	if err != nil {
		return st, err
	}
	var tryNs, stepNs time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tries := 0
	for i, a := range p.acts {
		if p.restart > 0 && i > 0 && i%p.restart == 0 {
			if en, err = state.NewEngine(p.e); err != nil {
				return st, err
			}
		}
		t0 := time.Now()
		ok := en.Try(a)
		t1 := time.Now()
		tryNs += t1.Sub(t0)
		tries++
		if !ok {
			continue
		}
		if err := en.Step(a); err != nil {
			return st, err
		}
		stepNs += time.Since(t1)
		st.steps++
		// Walking a large state to size it costs as much as a step, so
		// size is sampled where states are large.
		if p.restart == 0 || (i+1)%p.restart == 0 {
			st.size = en.StateSize()
			if st.size > st.sizeMax {
				st.sizeMax = st.size
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	if tries > 0 {
		st.tryUs = float64(tryNs) / float64(tries) / 1e3
	}
	if st.steps > 0 {
		st.stepUs = float64(stepNs) / float64(st.steps) / 1e3
		st.allocsPerStep = float64(ms1.Mallocs-ms0.Mallocs) / float64(st.steps)
	}
	return st, nil
}

// parseUs is the median time to parse the workload's expression from
// its text, or 0 if the text does not parse back to the same expression.
func parseUs(p shadowPlan) float64 {
	if p.e == nil {
		return 0
	}
	src := p.e.String()
	var us []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		e, err := parse.Parse(src)
		d := time.Since(t0)
		if err != nil || !e.Equal(p.e) {
			return 0
		}
		us = append(us, float64(d)/1e3)
	}
	return median(us)
}

// --- per-layer metrics ----------------------------------------------------------------

// layerInput is everything the per-layer metrics of a traced run are
// computed from.
type layerInput struct {
	ops             int64    // correct operations of the traced slices
	p99us           float64  // their p99, where there are >= 1000 samples
	tracedOpsPerS   float64  // median traced slice
	untracedOpsPerS float64  // median untraced slice of the same loop
	paced           *phase   // cluster_fig7's open-loop phase, tracer off
	window          float64  // seconds of traced slices
	d               counters // count differences over the traced slices
	deniedOps       int64    // expected denials over the traced slices
	ts              traceSummary
	proc            procUse
	shadow          shadowStat
	parseUs         float64
	pr              *probes
}

func perOp(total float64, ops int64) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric. Span times are per
// client operation unless the name says otherwise (an rtt is per
// exchange, a checkpoint per checkpoint).
func layerMetrics(in *layerInput) map[string]float64 {
	ops := in.ops
	ts, d := &in.ts, in.d
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	durPerOp := func(names ...spanName) float64 {
		var ns int64
		for _, n := range names {
			ns += ts.byName[n].DurNs
		}
		return perOp(us(ns), ops)
	}
	selfPerOp := func(names ...spanName) float64 {
		var ns int64
		for _, n := range names {
			ns += ts.byName[n].SelfNs
		}
		return perOp(us(ns), ops)
	}
	mean := func(n spanName) float64 {
		return ratio(us(ts.byName[n].DurNs), float64(ts.byName[n].Count))
	}
	m := map[string]float64{}

	m["client.ops"] = float64(ops)
	m["client.denied_share"] = perOp(float64(in.deniedOps), ops)
	m["client.latency_p99_us"] = in.p99us
	if in.paced != nil {
		m["client.gen_late_us"] = in.paced.pace.GenLateUs
		m["client.backlog_max"] = float64(in.paced.pace.BacklogMax)
		m["client.paced_completed_share"] = in.paced.pace.CompletedShare
	}
	m["parse.parse_us"] = in.parseUs

	m["state.try_us"], m["state.step_us"] = in.shadow.tryUs, in.shadow.stepUs
	m["state.steps"], m["state.allocs_per_step"] = float64(in.shadow.steps), in.shadow.allocsPerStep
	m["state.size_nodes"], m["state.size_nodes_max"] = float64(in.shadow.size), float64(in.shadow.sizeMax)
	var cs state.CacheStats
	for _, mg := range in.pr.primaries {
		if s, ok := mg.CacheStats(); ok {
			cs.MemoHits += s.MemoHits
			cs.MemoMisses += s.MemoMisses
			cs.MemoEntries += s.MemoEntries
			cs.Nodes += s.Nodes
		}
	}
	m["state.memo_hit_ratio"] = ratio(float64(cs.MemoHits), float64(cs.MemoHits+cs.MemoMisses))
	m["state.memo_entries"], m["state.nodes_interned"] = float64(cs.MemoEntries), float64(cs.Nodes)

	served := []spanName{spManagerRequest, spManagerAsk, spManagerConfirm}
	m["manager.request_us"] = durPerOp(served...)
	m["manager.self_us"] = selfPerOp(served...)
	m["manager.new_us"] = durPerOp(spManagerNew)
	// A restart's manager time is New minus what storage did inside it,
	// plus the callbacks storage.Replay made back into the manager.
	m["manager.self_us"] += selfPerOp(spManagerNew, spManagerReplay)
	m["manager.close_us"] = durPerOp(spManagerClose)
	m["manager.asks"], m["manager.grants"], m["manager.denies"] = d["asks"], d["grants"], d["denies"]
	m["manager.confirms"], m["manager.aborts"] = d["confirms"], d["aborts"]
	m["manager.transits"], m["manager.snapshots"] = d["transits"], d["snapshots"]
	m["manager.batch_ops_mean"] = ratio(d["entries"]-d["appends"], d["commits"])

	m["storage.buffer_us"] = durPerOp(spStorageBuffer, spStorageAppend)
	m["storage.commit_us"] = durPerOp(spStorageCommit, spStorageSync)
	m["storage.commits"], m["storage.entries"] = d["commits"], d["entries"]
	m["storage.entries_per_commit"] = ratio(d["entries"], d["commits"]+d["appends"])
	m["storage.checkpoint_us"] = mean(spStorageCheckpoint)
	m["storage.checkpoints"] = d["checkpoints"]
	m["storage.checkpoint_full_share"] = ratio(d["full_checkpoints"], d["checkpoints"])
	m["storage.compact_us"] = mean(spStorageCompact)
	m["storage.log_bytes_per_op"] = in.pr.logBytesPerEntry
	m["storage.ckpt_bytes_per_op"] = perOp(d["ckpt_bytes"], ops)
	m["storage.restore_chain_us"] = durPerOp(spStorageRestore)
	m["storage.replay_us"] = selfPerOp(spStorageReplay) // without the manager's callbacks
	m["storage.replay_entries"] = perOp(d["replay_entries"], ops)
	m["storage.chain_pieces"] = perOp(d["restored_pieces"], ops)
	m["storage.busy_share"] = ratio(float64(ts.busyNs["storage"])/1e9, in.window)

	m["repl.ack_rtt_us"] = mean(spReplAck)
	m["repl.frames"] = d["repl_frames"]
	m["repl.ops_per_frame"] = ratio(d["transits"], d["repl_frames"])
	m["repl.bytes_per_op"] = perOp(d["repl_out"]+d["repl_in"], ops)
	m["repl.follower_apply_us"] = mean(spReplApply)
	lag := 0
	for i, p := range in.pr.primaries {
		if i < len(in.pr.followers) {
			if l := p.Steps() - in.pr.followers[i].Steps(); l > lag {
				lag = l
			}
		}
	}
	m["repl.lag_steps_max"] = float64(lag)
	m["repl.resyncs"] = d["repl_resyncs"]

	// The wire's own time is the client call minus the server-side
	// Coordinator span inside it.
	m["wire.rtt_us"] = selfPerOp(spWireCall)
	m["wire.bytes_out_per_op"], m["wire.bytes_in_per_op"] = perOp(d["wire_out"], ops), perOp(d["wire_in"], ops)
	m["wire.writes_per_op"], m["wire.reads_per_op"] = perOp(d["wire_writes"], ops), perOp(d["wire_reads"], ops)

	m["cluster.request_us"] = durPerOp(spClusterRequest)
	m["cluster.self_us"] = selfPerOp(spClusterRequest)
	m["cluster.shard_rtt_us"] = mean(spClusterExchange)
	m["cluster.exchanges_per_op"] = perOp(d["shard_exchanges"], ops)
	m["cluster.shard_bytes_per_op"] = perOp(d["shard_out"]+d["shard_in"], ops)
	if gw := in.pr.gateway; gw != nil {
		gatewayTraceMetrics(gw, m)
	}
	m["placement.table_changes"] = d["table_gen"]

	m["proc.cpu_us_per_op"] = perOp(float64(in.proc.cpu)/1e3, ops)
	m["proc.gc_cycles"] = float64(in.proc.gcCycles)
	m["proc.gc_cpu_share"] = ratio(in.proc.gcCPU, in.proc.allCPU)
	m["proc.gc_pause_us_max"] = float64(in.proc.pauseMaxNs) / 1e3
	m["proc.heap_peak_mb"] = float64(in.proc.heapSys) / (1 << 20)
	m["proc.goroutines_max"] = float64(in.proc.goroutines)

	m["trace.spans"] = float64(ts.spans + ts.dropped)
	m["trace.overhead_share"] = 1 - ratio(in.tracedOpsPerS, in.untracedOpsPerS)
	// The client layer's self time is what no span inside a client call
	// covers: the part of the caller's wait the layers do not account for.
	m["trace.unattributed_share"] = ratio(float64(ts.layerNs["client"]), float64(ts.rootNs))
	return m
}

// gatewayTraceMetrics reads what the gateway already records: how many
// shards an action routes to and, from the ring of the most recent
// two-phase grants, what a reserve and a confirm round trip cost and
// how many grants were refused at reserve.
func gatewayTraceMetrics(gw *cluster.Gateway, m map[string]float64) {
	var reserveNs, confirmNs, reserves, confirms, refused float64
	traces := gw.Traces()
	for _, tr := range traces {
		if tr.Outcome == cluster.OutcomeRefused {
			refused++
		}
		for _, ev := range tr.Events {
			switch ev.Phase {
			case cluster.PhaseReserve:
				reserveNs += float64(ev.DurNs)
				reserves++
			case cluster.PhaseConfirm:
				confirmNs += float64(ev.DurNs)
				confirms++
			}
		}
	}
	m["cluster.reserve_rtt_us"] = ratio(reserveNs, reserves) / 1e3
	m["cluster.confirm_rtt_us"] = ratio(confirmNs, confirms) / 1e3
	m["cluster.refused_share"] = ratio(refused, float64(len(traces)))
}
