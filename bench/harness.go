package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/expr"
	"repro/internal/manager"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	window   time.Duration // the measured window, cut into blocks of blockLen
	traced   bool
	small    bool   // tests: one set-up, fewer warm-up operations and a smaller image
	traceOut string // where a traced run writes its spans ("" = nowhere)
}

// pacedRate is cluster_fig7's open-loop schedule in requests per
// second: about a quarter of what a quiet 2-core box saturates at, so
// that a request waits for the system and not for the one before it.
const pacedRate = 400

// setupsPerRun is how often a run sets its workload up; setup_s is the
// median of their durations.
const setupsPerRun = 5

// maxClients caps the client goroutines/connections: C = min(nproc, 4).
const maxClients = 4

func clientCount() int {
	if n := runtime.NumCPU(); n < maxClients {
		return n
	}
	return maxClients
}

// env is what a workload's set-up gets.
type env struct {
	cfg     config
	clients int     // callers of this workload: 1 or C
	warmup  int     // warm-up calls per caller
	tr      *tracer // nil in an untraced run
	tmp     string  // the run's scratch directory, removed when it ends
	ctx     context.Context
	pr      probes
}

// instance is one set-up workload.
type instance interface {
	// op performs client c's next call. It reports how many operations
	// the call carried and how many of them failed: an error, a timeout,
	// or a verdict that differs from the reference's.
	op(c int) (ops, failed int)
	// totals reports the verdicts so far: granted, expected denials,
	// failed.
	totals() (granted, denied, failed int64)
	// check runs the end-of-run correctness checks.
	check() error
	// close tears the instance down; it is called exactly once.
	close() error
	// info describes the inputs: their digest and the traffic's shape.
	info() instanceInfo
	// shadow is the action sequence a traced run feeds straight to a
	// state.Engine to price the state layer alone.
	shadow() shadowPlan
}

type instanceInfo struct {
	Digest string `json:"digest"`
	Policy string `json:"policy,omitempty"`
}

// tally counts verdicts per client. Each client writes only its own
// slot, and the slots are read after the clients have stopped.
type tally struct {
	granted, denied, failed []int64
}

func newTally(clients int) tally {
	return tally{make([]int64, clients), make([]int64, clients), make([]int64, clients)}
}

// verdict compares one reply with the reference verdict and returns 1
// for a failed operation.
func (t *tally) verdict(c int, s step, err error) int {
	switch {
	case !s.deny && err == nil:
		t.granted[c]++
		return 0
	case s.deny && errors.Is(err, manager.ErrDenied):
		t.denied[c]++
		return 0
	}
	if t.failed[c] == 0 {
		fmt.Fprintf(os.Stderr, "bench: client %d: %s: expected deny=%t, got %v\n", c, s.act, s.deny, err)
	}
	t.failed[c]++
	return 1
}

func (t *tally) totals() (granted, denied, failed int64) {
	return sum(t.granted), sum(t.denied), sum(t.failed)
}

func sum(vs []int64) int64 {
	var n int64
	for _, v := range vs {
		n += v
	}
	return n
}

// recorder holds one client's samples of one phase. Its buffer is
// allocated before the phase starts, so recording does not allocate.
type recorder struct {
	samples   []sample
	attempted int64
	failed    int64
}

func newRecorder(capacity int) *recorder {
	return &recorder{samples: make([]sample, 0, capacity)}
}

func (r *recorder) add(done, lat time.Duration, ops, failed int) {
	r.attempted += int64(ops)
	r.failed += int64(failed)
	if ok := ops - failed; ok > 0 {
		r.samples = append(r.samples, sample{done: int64(done), lat: int64(lat), ops: int32(ok)})
	}
}

// phase is the outcome of one measured phase.
type phase struct {
	stat      windowStat
	samples   []sample
	attempted int64
	failed    int64
	mallocs   uint64
	bytes     uint64
	pace      paceStat
}

func mergePhase(recs []*recorder, dur time.Duration, byLatency bool) phase {
	var p phase
	for _, r := range recs {
		p.samples = append(p.samples, r.samples...)
		p.attempted += r.attempted
		p.failed += r.failed
	}
	n := blockCount(dur)
	p.stat = summarize(p.samples, int64(dur)/int64(n), n, byLatency)
	return p
}

// runClosed is the closed loop: every client sends its next call only
// after the previous one completed. With single set, one goroutine
// takes the clients' turns round-robin, which keeps one request in
// flight in total (the traced run); it calls onSlice, if set, between
// two calls whenever a new traceSliceLen slice of the window begins.
func runClosed(e *env, inst instance, dur time.Duration, callsPerSec float64, single bool, onSlice func(slice int)) phase {
	slices := traceSliceCount(dur)
	workers := e.clients
	if single {
		workers = 1
	}
	recs := make([]*recorder, workers)
	for i := range recs {
		recs[i] = newRecorder(int(callsPerSec*dur.Seconds()*2) + 4096)
	}
	prep, _ := inst.(interface{ prepare(c int) })
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := recs[w]
			slice := -1
			for i := 0; ; i++ {
				if onSlice != nil {
					if s := int(time.Since(start) * time.Duration(slices) / dur); s > slice && s < slices {
						slice = s
						onSlice(s)
					}
				}
				c := w
				if single {
					c = i % e.clients
				}
				if prep != nil {
					prep.prepare(c) // outside the timed span
				}
				e.tr.nextRequest()
				span := e.tr.now()
				t0 := time.Now()
				ops, failed := inst.op(c)
				t1 := time.Now()
				e.tr.end(spClientOp, span)
				done := t1.Sub(start)
				if done >= dur {
					return
				}
				rec.add(done, t1.Sub(t0), ops, failed)
			}
		}(w)
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	p := mergePhase(recs, dur, false)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	return p
}

// paceStat says how well the open-loop generator kept its schedule.
type paceStat struct {
	GenLateUs      float64 `json:"gen_late_us"`     // median lateness of a send whose connection was idle when it fell due
	BacklogMax     int     `json:"backlog_max"`     // most requests due but not yet sent, on one connection
	CompletedShare float64 `json:"completed_share"` // completed in the window / scheduled in the window
	Scheduled      int     `json:"scheduled"`
}

// runPaced is the open loop: a fixed schedule of rate requests per
// second split evenly across the clients' connections. A connection
// carries one request at a time (a visit's operations depend on each
// other), so a request that falls due while the previous one is still
// out waits, and that wait is part of its latency: every request is
// timed from when it was due, not from when it was sent.
func runPaced(e *env, inst instance, dur time.Duration, rate float64) phase {
	workers := e.clients
	interval := time.Duration(float64(time.Second) * float64(workers) / rate)
	perWorker := int(dur / interval)
	recs := make([]*recorder, workers)
	for i := range recs {
		recs[i] = newRecorder(perWorker + 16)
	}
	late := make([][]float64, workers) // us
	backlog := make([]int, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// sleepUntil blocks the thread, so the goroutine owns one.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			// Stagger the connections across one interval.
			offset := interval * time.Duration(w) / time.Duration(workers)
			late[w] = make([]float64, 0, perWorker)
			for k := 0; k < perWorker; k++ {
				due := offset + time.Duration(k)*interval
				now := time.Since(start)
				if now < due {
					sleepUntil(start, due)
					late[w] = append(late[w], float64(time.Since(start)-due)/1e3)
				} else if b := int((now - due) / interval); b > backlog[w] {
					backlog[w] = b
				}
				ops, failed := inst.op(w)
				done := time.Since(start)
				if done >= dur {
					return
				}
				recs[w].add(done, done-due, ops, failed)
			}
		}(w)
	}
	wg.Wait()
	p := mergePhase(recs, dur, true)
	p.pace.Scheduled = perWorker * workers
	var allLate []float64
	for w := range late {
		allLate = append(allLate, late[w]...)
		if backlog[w] > p.pace.BacklogMax {
			p.pace.BacklogMax = backlog[w]
		}
	}
	p.pace.GenLateUs = median(allLate)
	p.pace.CompletedShare = float64(p.attempted-p.failed) / float64(p.pace.Scheduled)
	return p
}

// sleepUntil returns when due has passed since start: it sleeps in the
// kernel until shortly before, then spins. time.Sleep on an otherwise
// idle Go process wakes through epoll_wait, whose timeout counts whole
// milliseconds: sends ran 400 us late on average, a third of the
// latency being measured. nanosleep alone wakes 150 us late on this
// box. The spin costs each connection at most spinLead of CPU per
// request, 5% of a core at 200 requests per second.
func sleepUntil(start time.Time, due time.Duration) {
	const spinLead = 250 * time.Microsecond
	if d := due - time.Since(start) - spinLead; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // woken early (EINTR), the spin covers the rest
	}
	for time.Since(start) < due {
	}
}

// warmup runs the workload's fixed count of calls on every client at
// once, as the measured loop does, and returns the calls per second one
// client reached.
func warmup(e *env, inst instance) (callsPerSec float64, err error) {
	n := e.warmup
	start := time.Now()
	failed := make([]int, e.clients)
	var wg sync.WaitGroup
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				_, f := inst.op(c)
				failed[c] += f
			}
		}(c)
	}
	wg.Wait()
	for _, f := range failed {
		if f > 0 {
			return 0, fmt.Errorf("warm-up: %d operations failed", f)
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// setupFunc builds a workload: parse, build managers, servers and
// stores, dial, and run the fixed-count warm-up. It returns the
// instance and the calls per second one client reached while warming.
type setupFunc func(e *env) (instance, float64, error)

type workloadDef struct {
	name      string
	why       string
	warmup    int  // warm-up calls per caller, part of every set-up
	oneCaller bool // one closed-loop caller instead of C
	paced     bool // latency comes from a second, open-loop phase
	setup     setupFunc
}

// repeatSetup sets the workload up setupsPerRun times (once in a test),
// tearing down all but the last, and returns the last instance with
// every set-up's duration.
func repeatSetup(e *env, wl workloadDef) (instance, float64, []float64, error) {
	n := setupsPerRun
	if e.cfg.small {
		n = 1
	}
	var times []float64
	for {
		t0 := time.Now()
		inst, rate, err := wl.setup(e)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		if len(times) >= n {
			return inst, rate, times, nil
		}
		if err := inst.close(); err != nil {
			return nil, 0, nil, fmt.Errorf("%s: tear-down: %w", wl.name, err)
		}
	}
}

// shadowPlan is what the state layer's shadow pass replays: the
// actions, in order, against a fresh engine for e every restart actions
// (0 = never restart).
type shadowPlan struct {
	e       *expr.Expr
	acts    []expr.Action
	restart int
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
