package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/paper"
	"repro/internal/parse"
	"repro/internal/placement"
	"repro/internal/state"
	"repro/internal/storage"
)

// The six workloads. Each passes the program only the options written
// here, so a later change of a default shows up in the numbers. The
// `why` lines are BENCHMARK.json's; bench_test.go checks they agree.
var workloads = []workloadDef{
	{name: "admit_uniform", warmup: 4800, setup: setupAdmitUniform, oneCaller: true,
		why: "state does >90% of the work and the 24 recurring states fit any memo; 1 caller, 1 in 10 ops an expected denial; warm-up 4800 ops"},
	{name: "admit_malignant", warmup: 48, setup: setupAdmitMalignant, oneCaller: true,
		why: "same layer, opposite use: state grows to 11,791 nodes and nothing recurs, so memo or interning work is pure cost here; 1 caller; warm-up 48 ops"},
	{name: "durable_quasi", warmup: 256, setup: setupDurableQuasi,
		why: "commit queue and storage write path (buffer, flush, fsync per group commit, checkpoints); C callers, bursts of 32; warm-up 256 bursts per caller"},
	{name: "recover_replay", warmup: 24, setup: setupRecoverReplay, oneCaller: true,
		why: "storage read path: restart on a crashed 10,000-action image (full + delta checkpoint + 2,000-entry tail); set-up writes the image; warm-up 24 restarts"},
	{name: "wire_quasi", warmup: 8192, setup: setupWireQuasi,
		why: "single-node wire path (net.go + codec.go) does >85% of the work; C connections, one request in flight each; warm-up 8192 requests per connection"},
	{name: "cluster_fig7", warmup: 600, setup: setupClusterFig7, paced: true,
		why: "the whole stack on Fig 7: gateway, 2 shards with sync followers, two-phase grants, fresh ids; saturated then paced at 400 req/s; warm-up 600 requests per connection"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// --- 1. admit_uniform ----------------------------------------------------------

type admitUniform struct {
	e      *env
	ex     *expr.Expr
	m      *manager.Manager
	script []step
	pos    int
	tally
	digest string
}

func setupAdmitUniform(e *env) (instance, float64, error) {
	ex, err := parse.Parse(uniformSrc)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	script, err := uniformScript(rng, ex)
	if err != nil {
		return nil, 0, err
	}
	if err := verifyScript(ex, script); err != nil {
		return nil, 0, err
	}
	m, err := manager.New(ex, manager.Options{})
	if err != nil {
		return nil, 0, err
	}
	e.pr.primaries = []*manager.Manager{m}
	d := newDigester()
	for _, s := range script {
		d.add(s)
	}
	w := &admitUniform{e: e, ex: ex, m: m, script: script, tally: newTally(1), digest: d.sum()}
	rate, err := warmup(e, w)
	if err != nil {
		w.close()
		return nil, 0, err
	}
	return w, rate, nil
}

func (w *admitUniform) op(int) (int, int) {
	s := w.script[w.pos]
	w.pos = (w.pos + 1) % len(w.script)
	t := w.e.tr.now()
	err := w.m.Request(w.e.ctx, s.act)
	w.e.tr.end(spManagerRequest, t)
	return 1, w.verdict(0, s, err)
}

func (w *admitUniform) check() error { return checkSteps("admit_uniform", w.m, sum(w.granted)) }
func (w *admitUniform) close() error { return w.m.Close() }
func (w *admitUniform) info() instanceInfo {
	return instanceInfo{Digest: w.digest}
}
func (w *admitUniform) shadow() shadowPlan {
	return shadowPlan{e: w.ex, acts: scriptActions(w.script, 20)}
}

// checkSteps checks that a manager committed exactly the granted
// operations: no grant was lost and no denial took effect.
func checkSteps(what string, m *manager.Manager, granted int64) error {
	if got := int64(m.Steps()); got != granted {
		return fmt.Errorf("%s: manager committed %d steps, clients were granted %d", what, got, granted)
	}
	return nil
}

// scriptActions is the script repeated n times, as plain actions.
func scriptActions(script []step, n int) []expr.Action {
	acts := make([]expr.Action, 0, n*len(script))
	for i := 0; i < n; i++ {
		for _, s := range script {
			acts = append(acts, s.act)
		}
	}
	return acts
}

// --- 2. admit_malignant ----------------------------------------------------------

type admitMalignant struct {
	e       *env
	serial  int
	refSize int
	tally
	digest string
}

func (w *admitMalignant) tag(n int) string { return fmt.Sprintf("s%dn%d", w.e.cfg.seed, n) }

func setupAdmitMalignant(e *env) (instance, float64, error) {
	w := &admitMalignant{e: e, tally: newTally(1)}
	// The reference: a plain engine grants all 14 a's, and the size it
	// reaches is what every operation's manager must reach.
	ex, a := malignantExpr(w.tag(0))
	ref, err := state.NewEngine(ex)
	if err != nil {
		return nil, 0, err
	}
	d := newDigester()
	for i := 0; i < malignantWord; i++ {
		if err := ref.Step(a); err != nil {
			return nil, 0, fmt.Errorf("reference refuses a #%d: %w", i, err)
		}
		d.add(step{act: a})
	}
	w.refSize = ref.StateSize()
	w.digest = d.sum()
	rate, err := warmup(e, w)
	if err != nil {
		return nil, 0, err
	}
	return w, rate, nil
}

// op is one whole life of a manager: New, 14 requests, Close. Each
// operation uses atoms of its own, so no state of one recurs in another.
func (w *admitMalignant) op(int) (int, int) {
	tr := w.e.tr
	ex, a := malignantExpr(w.tag(w.serial))
	w.serial++
	t := tr.now()
	m, err := manager.New(ex, manager.Options{})
	tr.end(spManagerNew, t)
	if err != nil {
		return 1, w.verdict(0, step{act: a}, err)
	}
	ok := true
	for i := 0; i < malignantWord; i++ {
		t = tr.now()
		err := m.Request(w.e.ctx, a)
		tr.end(spManagerRequest, t)
		ok = ok && err == nil
	}
	ok = ok && m.Steps() == malignantWord && m.StateSize() == w.refSize
	if tr.on() {
		w.e.pr.retire(m)
	}
	t = tr.now()
	err = m.Close()
	tr.end(spManagerClose, t)
	if !ok || err != nil {
		return 1, w.verdict(0, step{act: a}, errors.New("operation refused, closed badly, or reached another state size than the reference"))
	}
	return 1, w.verdict(0, step{act: a}, nil)
}

func (w *admitMalignant) check() error { return nil } // every op checks its own manager
func (w *admitMalignant) close() error { return nil }
func (w *admitMalignant) info() instanceInfo {
	return instanceInfo{Digest: w.digest}
}
func (w *admitMalignant) shadow() shadowPlan {
	ex, a := malignantExpr(w.tag(0))
	acts := make([]expr.Action, 16*malignantWord)
	for i := range acts {
		acts[i] = a
	}
	return shadowPlan{e: ex, acts: acts, restart: malignantWord}
}

// --- 3. durable_quasi --------------------------------------------------------------

// quasiTraffic is the per-client looping scripts of the quasi-regular
// workloads, cut into bursts.
type quasiTraffic struct {
	ex      *expr.Expr
	scripts [][]step
	bursts  [][][]expr.Action
	digest  string
}

const quasiBursts = 8 // bursts per client script: 256 operations

func newQuasiTraffic(seed int64, clients int, deny bool) (*quasiTraffic, error) {
	q := &quasiTraffic{ex: quasiExpr(clients)}
	d := newDigester()
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed<<8 + int64(c)))
		script := quasiScript(rng, c, quasiBursts, deny)
		if err := verifyScript(quasiOperand(c), script); err != nil {
			return nil, fmt.Errorf("client %d: %w", c, err)
		}
		var bursts [][]expr.Action
		for i := 0; i < len(script); i += burstSize {
			b := make([]expr.Action, burstSize)
			for j := range b {
				b[j] = script[i+j].act
				d.add(script[i+j])
			}
			bursts = append(bursts, b)
		}
		q.scripts = append(q.scripts, script)
		q.bursts = append(q.bursts, bursts)
	}
	q.digest = d.sum()
	return q, nil
}

// interleaved is the clients' scripts taken in turn, n times over: the
// order a single-flight run issues them in.
func (q *quasiTraffic) interleaved(n int) []expr.Action {
	var acts []expr.Action
	for i := 0; i < n*len(q.scripts[0]); i++ {
		for c := range q.scripts {
			acts = append(acts, q.scripts[c][i%len(q.scripts[c])].act)
		}
	}
	return acts
}

// Durable configuration shared by durable_quasi and recover_replay.
const (
	durableBatch     = 64
	durableSnapEvery = 20000
	durableFullEvery = 8
)

// durableOptions is durable_quasi's manager configuration over dir:
// Segmented storage with the default segment size, fsync per group
// commit. An untraced run names the directory; a traced run opens the
// same backend itself and injects it decorated.
func (e *env) durableOptions(dir string, snapEvery int) (manager.Options, error) {
	o := manager.Options{SyncWrites: true, BatchMaxSize: durableBatch,
		SnapshotEvery: snapEvery, FullCheckpointEvery: durableFullEvery}
	if e.tr == nil {
		o.StorageDir = dir
		return o, nil
	}
	seg, err := storage.OpenSegmented(dir, 0)
	if err != nil {
		return o, err
	}
	o.Storage = &tracedStore{Backend: seg, tr: e.tr, n: &e.pr.store}
	return o, nil
}

// logDensity is the log's bytes per entry: every client's script
// written once to a scratch Segmented store and measured before any
// checkpoint can compact it.
func logDensity(tmp string, q *quasiTraffic) (float64, error) {
	dir, err := os.MkdirTemp(tmp, "density-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	seg, err := storage.OpenSegmented(dir, 0)
	if err != nil {
		return 0, err
	}
	defer seg.Close()
	n := uint64(0)
	for _, script := range q.scripts {
		for _, s := range script {
			n++
			if err := seg.Buffer(storage.Entry{Name: s.act.Name, Args: s.act.Values(), Seq: n}); err != nil {
				return 0, err
			}
		}
	}
	if err := seg.Commit(false); err != nil {
		return 0, err
	}
	b, err := seg.LogBytes()
	return float64(b) / float64(n), err
}

type durableQuasi struct {
	e   *env
	q   *quasiTraffic
	dir string
	m   *manager.Manager
	pos []int
	tally
}

func setupDurableQuasi(e *env) (instance, float64, error) {
	q, err := newQuasiTraffic(e.cfg.seed, e.clients, true)
	if err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(e.tmp, "durable-")
	if err != nil {
		return nil, 0, err
	}
	opts, err := e.durableOptions(dir, durableSnapEvery)
	if err != nil {
		return nil, 0, err
	}
	m, err := manager.New(q.ex, opts)
	if err != nil {
		return nil, 0, err
	}
	e.pr.primaries = []*manager.Manager{m}
	w := &durableQuasi{e: e, q: q, dir: dir, m: m, pos: make([]int, e.clients), tally: newTally(e.clients)}
	rate, err := warmup(e, w)
	if err != nil {
		w.close()
		return nil, 0, err
	}
	if e.tr != nil {
		if e.pr.logBytesPerEntry, err = logDensity(e.tmp, q); err != nil {
			w.close()
			return nil, 0, err
		}
	}
	return w, rate, nil
}

func (w *durableQuasi) op(c int) (int, int) {
	k := w.pos[c]
	w.pos[c] = (k + 1) % len(w.q.bursts[c])
	t := w.e.tr.now()
	errs := w.m.RequestMany(w.e.ctx, w.q.bursts[c][k])
	w.e.tr.end(spManagerRequest, t)
	failed := 0
	for i, err := range errs {
		failed += w.verdict(c, w.q.scripts[c][k*burstSize+i], err)
	}
	return burstSize, failed
}

// check compares the manager with its clients' grants, then closes it,
// reopens the directory and compares the recovered state with the one
// that was closed.
func (w *durableQuasi) check() error {
	if err := checkSteps("durable_quasi", w.m, sum(w.granted)); err != nil {
		return err
	}
	steps, key := w.m.Steps(), w.m.StateKey()
	m := w.m
	w.m = nil
	if err := m.Close(); err != nil {
		return fmt.Errorf("durable_quasi: close: %w", err)
	}
	opts, err := w.e.durableOptions(w.dir, durableSnapEvery)
	if err != nil {
		return err
	}
	re, err := manager.New(w.q.ex, opts)
	if err != nil {
		return fmt.Errorf("durable_quasi: reopen: %w", err)
	}
	defer re.Close()
	if re.Steps() != steps || re.StateKey() != key {
		return fmt.Errorf("durable_quasi: reopened store recovered %d steps, closed at %d; state keys equal: %t",
			re.Steps(), steps, re.StateKey() == key)
	}
	return nil
}

func (w *durableQuasi) close() error {
	var err error
	if w.m != nil {
		err = w.m.Close()
	}
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

func (w *durableQuasi) info() instanceInfo {
	return instanceInfo{Digest: w.q.digest,
		Policy: "flush policy: fsync per group commit (SyncWrites)"}
}
func (w *durableQuasi) shadow() shadowPlan {
	return shadowPlan{e: w.q.ex, acts: w.q.interleaved(16)}
}

// --- 4. recover_replay ---------------------------------------------------------------

type recoverReplay struct {
	e      *env
	q      *quasiTraffic
	dir    string // the image a restart opens
	keep   string // a pristine copy of it
	files  string // the image's file list and sizes
	steps  int
	key    string
	snap   int
	pieces int
	tally
}

// The image of recover_replay is durable_quasi's at one fifth of the
// scale: 10,000 actions checkpointed every 4,000, so a restart finds
// one full checkpoint, one delta and a 2,000-entry tail behind a log
// that still holds all 10,000 entries in its open segment (nothing was
// sealed, so nothing could be compacted). At the full scale of 50,000
// and 20,000 the same shape takes ~52 ms to restart, which leaves the
// quiet quarter's 3 s fewer than ten samples beyond its p90; at this
// scale it takes ~10 ms.
const (
	imageActions   = 10000
	imageSnapEvery = 4000
)

// setupRecoverReplay writes the image with durable_quasi's
// configuration and stops the writer as a crash would.
func setupRecoverReplay(e *env) (instance, float64, error) {
	// The image is durable_quasi's: one operand per client of that
	// workload, though a restart has a single caller.
	writers := clientCount()
	q, err := newQuasiTraffic(e.cfg.seed, writers, false)
	if err != nil {
		return nil, 0, err
	}
	w := &recoverReplay{e: e, q: q, steps: imageActions, snap: imageSnapEvery, tally: newTally(1)}
	if w.dir, err = os.MkdirTemp(e.tmp, "image-"); err != nil {
		return nil, 0, err
	}
	m, cs, err := w.open()
	if err != nil {
		return nil, 0, err
	}
	for written, i := 0, 0; written < w.steps; i++ {
		c := i % writers
		burst := q.bursts[c][(i/writers)%quasiBursts]
		if rest := w.steps - written; rest < len(burst) {
			burst = burst[:rest]
		}
		for _, err := range m.RequestMany(e.ctx, burst) {
			if err != nil {
				m.Close()
				return nil, 0, fmt.Errorf("writing the image: %w", err)
			}
		}
		written += len(burst)
	}
	w.key = m.StateKey()
	w.pieces = m.Stats().Snapshots
	cs.Crash()
	if err := m.Close(); err != nil {
		return nil, 0, err
	}
	if w.files, err = listing(w.dir); err != nil {
		return nil, 0, err
	}
	w.keep = w.dir + ".keep"
	if err := copyDir(w.dir, w.keep); err != nil {
		return nil, 0, err
	}
	rate, err := warmup(e, w)
	if err != nil {
		w.close()
		return nil, 0, err
	}
	return w, rate, nil
}

// open starts a manager on the image through a crashStore.
func (w *recoverReplay) open() (*manager.Manager, *crashStore, error) {
	seg, err := storage.OpenSegmented(w.dir, 0)
	if err != nil {
		return nil, nil, err
	}
	cs := &crashStore{Backend: seg}
	if w.e.tr != nil {
		cs.Backend = &tracedStore{Backend: seg, tr: w.e.tr, n: &w.e.pr.store}
	}
	m, err := manager.New(w.q.ex, manager.Options{Storage: cs, SyncWrites: true, BatchMaxSize: durableBatch,
		SnapshotEvery: w.snap, FullCheckpointEvery: durableFullEvery})
	return m, cs, err
}

// prepare asserts, outside the timed span, that the image is what the
// writer left, and restores the pristine copy if it is not.
func (w *recoverReplay) prepare(int) {
	if got, err := listing(w.dir); err == nil && got == w.files {
		return
	}
	fmt.Fprintln(os.Stderr, "bench: recover_replay: image changed, restoring the pristine copy")
	os.RemoveAll(w.dir)
	if err := copyDir(w.keep, w.dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: recover_replay:", err)
	}
}

// op is one restart: open the image until it serves, check what it
// recovered, and end the reader as a crash would, so that it writes no
// parting checkpoint.
func (w *recoverReplay) op(int) (int, int) {
	t := w.e.tr.now()
	m, cs, err := w.open()
	w.e.tr.end(spManagerNew, t)
	if err != nil {
		return 1, w.verdict(0, step{}, err)
	}
	if m.Steps() != w.steps || m.StateKey() != w.key {
		err = fmt.Errorf("recovered %d steps, the writer committed %d; state keys equal: %t", m.Steps(), w.steps, m.StateKey() == w.key)
	}
	if w.e.tr.on() {
		w.e.pr.retire(m)
	}
	cs.Crash()
	t = w.e.tr.now()
	cerr := m.Close()
	w.e.tr.end(spManagerClose, t)
	if err == nil {
		err = cerr
	}
	return 1, w.verdict(0, step{}, err)
}

func (w *recoverReplay) check() error { return nil } // every op checks its own manager
func (w *recoverReplay) close() error {
	err := os.RemoveAll(w.dir)
	if rerr := os.RemoveAll(w.keep); err == nil {
		err = rerr
	}
	return err
}
func (w *recoverReplay) info() instanceInfo {
	return instanceInfo{Digest: w.q.digest,
		Policy: fmt.Sprintf("image: %d actions, %d checkpoint pieces, files %s", w.steps, w.pieces, w.files)}
}
func (w *recoverReplay) shadow() shadowPlan {
	return shadowPlan{e: w.q.ex, acts: w.q.interleaved(16)}
}

// listing is a directory's file names and sizes, in name order.
func listing(dir string) (string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, de := range des {
		fi, err := de.Info()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%s:%d ", de.Name(), fi.Size())
	}
	return b.String(), nil
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	des, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, de := range des {
		if err := copyFile(filepath.Join(from, de.Name()), filepath.Join(to, de.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// --- 5. wire_quasi -----------------------------------------------------------------------

type wireQuasi struct {
	e   *env
	q   *quasiTraffic
	m   *manager.Manager
	srv *manager.Server
	cls []*manager.Client
	pos []int
	tally
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve serves m on ln: plainly, or in a traced run through the
// decorated Coordinator.
func (e *env) serve(m *manager.Manager, ln net.Listener) *manager.Server {
	if e.tr == nil {
		return manager.NewServer(m, ln)
	}
	return manager.NewCoordServer(newTracedManagerCoord(m, e.tr), ln)
}

// dialClients opens one default (binary v2) connection per client.
func (e *env) dialClients(addr string) ([]*manager.Client, error) {
	var opts manager.DialOptions
	if e.tr != nil {
		opts.Dialer = tracedDialer(e.tr, &e.pr.wire, false, 0)
	}
	cls := make([]*manager.Client, 0, e.clients)
	for c := 0; c < e.clients; c++ {
		cl, err := manager.DialWith(addr, opts)
		if err != nil {
			closeClients(cls)
			return nil, err
		}
		cls = append(cls, cl)
	}
	return cls, nil
}

func closeClients(cls []*manager.Client) {
	for _, cl := range cls {
		cl.Close()
	}
}

func setupWireQuasi(e *env) (instance, float64, error) {
	q, err := newQuasiTraffic(e.cfg.seed, e.clients, true)
	if err != nil {
		return nil, 0, err
	}
	m, err := manager.New(q.ex, manager.Options{})
	if err != nil {
		return nil, 0, err
	}
	e.pr.primaries = []*manager.Manager{m}
	ln, err := listen()
	if err != nil {
		m.Close()
		return nil, 0, err
	}
	w := &wireQuasi{e: e, q: q, m: m, srv: e.serve(m, ln), pos: make([]int, e.clients), tally: newTally(e.clients)}
	if w.cls, err = e.dialClients(w.srv.Addr()); err != nil {
		w.close()
		return nil, 0, err
	}
	rate, err := warmup(e, w)
	if err != nil {
		w.close()
		return nil, 0, err
	}
	return w, rate, nil
}

func (w *wireQuasi) op(c int) (int, int) {
	s := w.q.scripts[c][w.pos[c]]
	w.pos[c] = (w.pos[c] + 1) % len(w.q.scripts[c])
	t := w.e.tr.now()
	err := w.cls[c].Request(w.e.ctx, s.act)
	w.e.tr.end(spWireCall, t)
	return 1, w.verdict(c, s, err)
}

func (w *wireQuasi) check() error { return checkSteps("wire_quasi", w.m, sum(w.granted)) }
func (w *wireQuasi) close() error {
	closeClients(w.cls)
	err := w.srv.Close()
	if merr := w.m.Close(); err == nil {
		err = merr
	}
	return err
}
func (w *wireQuasi) info() instanceInfo {
	return instanceInfo{Digest: w.q.digest,
		Policy: "protocol " + w.cls[0].Proto()}
}
func (w *wireQuasi) shadow() shadowPlan {
	return shadowPlan{e: w.q.ex, acts: w.q.interleaved(16)}
}

// --- 6. cluster_fig7 -----------------------------------------------------------------------

// node is one replica: a manager and its wire server.
type node struct {
	m   *manager.Manager
	srv *manager.Server
}

func (n *node) close() error {
	err := n.srv.Close()
	if merr := n.m.Close(); err == nil {
		err = merr
	}
	return err
}

type clusterFig7 struct {
	e         *env
	ex        *expr.Expr
	primaries []*node
	followers []*node
	table     *placement.RouteTable
	gw        *cluster.Gateway
	gsrv      *manager.Server
	cls       []*manager.Client
	gens      []*fig7Gen
	idx       []int
	dirs      []string
	tally
	digest string
}

// shardOptions is the configuration of every cluster_fig7 replica:
// Segmented storage without fsync, group commit of up to 64 within
// 100µs. Durability is the sync follower's ack, not the disk.
func (w *clusterFig7) shardOptions(follower bool) (manager.Options, error) {
	dir, err := os.MkdirTemp(w.e.tmp, "shard-")
	if err != nil {
		return manager.Options{}, err
	}
	w.dirs = append(w.dirs, dir)
	o := manager.Options{SyncWrites: false, BatchMaxSize: 64, BatchMaxDelay: 100 * time.Microsecond, Follower: follower}
	if w.e.tr == nil {
		o.StorageDir = dir
		return o, nil
	}
	seg, err := storage.OpenSegmented(dir, 0)
	if err != nil {
		return o, err
	}
	counts := &w.e.pr.store
	if follower {
		counts = &w.e.pr.followerStore
	}
	o.Storage = &tracedStore{Backend: seg, tr: w.e.tr, n: counts}
	return o, nil
}

func setupClusterFig7(e *env) (instance, float64, error) {
	w := &clusterFig7{e: e, ex: paper.Fig7Coupled(), idx: make([]int, e.clients), tally: newTally(e.clients)}
	inst, rate, err := w.setup()
	if err != nil {
		w.close()
	}
	return inst, rate, err
}

func (w *clusterFig7) setup() (instance, float64, error) {
	e := w.e
	var routes [][]string
	for _, part := range cluster.Partition(w.ex) {
		fln, err := listen()
		if err != nil {
			return nil, 0, err
		}
		fopts, err := w.shardOptions(true)
		if err != nil {
			return nil, 0, err
		}
		fm, err := manager.New(part, fopts)
		if err != nil {
			return nil, 0, err
		}
		f := &node{m: fm, srv: e.serve(fm, fln)}
		w.followers = append(w.followers, f)

		pln, err := listen()
		if err != nil {
			return nil, 0, err
		}
		popts, err := w.shardOptions(false)
		if err != nil {
			return nil, 0, err
		}
		popts.Replicas = []string{f.srv.Addr()}
		popts.SyncReplicas = true
		if e.tr != nil {
			popts.Dialer = tracedDialer(e.tr, &e.pr.repl, true, spReplAck)
		}
		pm, err := manager.New(part, popts)
		if err != nil {
			return nil, 0, err
		}
		p := &node{m: pm, srv: e.serve(pm, pln)}
		w.primaries = append(w.primaries, p)
		routes = append(routes, []string{p.srv.Addr(), f.srv.Addr()})
		e.pr.primaries = append(e.pr.primaries, pm)
		e.pr.followers = append(e.pr.followers, fm)
	}
	var err error
	if w.table, err = placement.NewRouteTable(routes); err != nil {
		return nil, 0, err
	}
	gopts := cluster.GatewayOptions{RouteTable: w.table}
	if e.tr != nil {
		gopts.Dialer = tracedDialer(e.tr, &e.pr.shard, true, spClusterExchange)
	}
	if w.gw, err = cluster.NewReplicatedGateway(w.ex, nil, gopts); err != nil {
		return nil, 0, err
	}
	if err := w.gw.Ping(e.ctx); err != nil {
		return nil, 0, err
	}
	e.pr.gateway, e.pr.table = w.gw, w.table
	gln, err := listen()
	if err != nil {
		return nil, 0, err
	}
	var co manager.Coordinator = w.gw
	if e.tr != nil {
		co = &tracedGatewayCoord{gatewayCoord: w.gw, tr: e.tr}
	}
	w.gsrv = manager.NewCoordServer(co, gln)
	if w.cls, err = e.dialClients(w.gsrv.Addr()); err != nil {
		return nil, 0, err
	}
	d := newDigester()
	for c := 0; c < e.clients; c++ {
		g := newFig7Gen(e.cfg.seed, c)
		w.gens = append(w.gens, g)
		for i := 0; i < 100*fig7Block; i++ {
			d.add(g.at(i))
		}
	}
	w.digest = d.sum()
	rate, err := warmup(e, w)
	return w, rate, err
}

func (w *clusterFig7) op(c int) (int, int) {
	s := w.gens[c].at(w.idx[c])
	w.idx[c]++
	t := w.e.tr.now()
	err := w.cls[c].Request(w.e.ctx, s.act)
	w.e.tr.end(spWireCall, t)
	return 1, w.verdict(c, s, err)
}

// check replays every client's sequence through a plain reference
// engine for the whole coupled expression, then compares the shards
// with what was granted and each follower with its primary.
func (w *clusterFig7) check() error {
	wantShard := make([]int64, len(w.primaries))
	for c, g := range w.gens {
		ref, err := state.NewEngine(w.ex)
		if err != nil {
			return err
		}
		for i := 0; i < w.idx[c]; i++ {
			s := g.at(i)
			if s.deny {
				if ref.Try(s.act) {
					return fmt.Errorf("cluster_fig7: client %d op %d: reference permits %s, the generator expects a denial", c, i, s.act)
				}
				continue
			}
			if err := ref.Step(s.act); err != nil {
				return fmt.Errorf("cluster_fig7: client %d op %d: reference refuses %s, the generator expects a grant: %w", c, i, s.act, err)
			}
			for _, shard := range w.gw.Route(s.act) {
				wantShard[shard]++
			}
		}
	}
	if sum(w.failed) > 0 {
		return nil // already counted; shard counts cannot be expected to match
	}
	for i, p := range w.primaries {
		if err := checkSteps(fmt.Sprintf("cluster_fig7 shard %d", i), p.m, wantShard[i]); err != nil {
			return err
		}
		if ps, fs := p.m.Steps(), w.followers[i].m.Steps(); ps != fs {
			return fmt.Errorf("cluster_fig7 shard %d: follower at %d steps, primary at %d, at quiescence", i, fs, ps)
		}
		if p.m.StateKey() != w.followers[i].m.StateKey() {
			return fmt.Errorf("cluster_fig7 shard %d: follower state differs from primary", i)
		}
	}
	return nil
}

func (w *clusterFig7) close() error {
	closeClients(w.cls)
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if w.gsrv != nil {
		keep(w.gsrv.Close())
	}
	if w.gw != nil {
		keep(w.gw.Close())
	}
	for _, n := range w.primaries {
		keep(n.close())
	}
	for _, n := range w.followers {
		keep(n.close())
	}
	for _, d := range w.dirs {
		keep(os.RemoveAll(d))
	}
	return first
}

func (w *clusterFig7) info() instanceInfo {
	return instanceInfo{Digest: w.digest,
		Policy: "durability is the sync follower's ack (SyncReplicas); SyncWrites=false, so no fsync on the commit path"}
}

// routes reads Gateway.Route over one traffic period: shards per
// operation and the share of operations that cross shards.
func (w *clusterFig7) routes() (shardsPerOp, crossShare float64) {
	n := 100 * fig7Block
	for i := 0; i < n; i++ {
		r := len(w.gw.Route(w.gens[0].at(i).act))
		shardsPerOp += float64(r) / float64(n)
		if r > 1 {
			crossShare += 1 / float64(n)
		}
	}
	return shardsPerOp, crossShare
}

func (w *clusterFig7) shadow() shadowPlan {
	var acts []expr.Action
	for i := 0; i < 250*fig7Block; i++ {
		for _, g := range w.gens {
			acts = append(acts, g.at(i).act)
		}
	}
	return shadowPlan{e: w.ex, acts: acts}
}
