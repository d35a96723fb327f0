// Package cmd_test smoke-tests the command-line tools end to end by
// building and running them as real subprocesses.
package cmd_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/ix"
)

// buildTool compiles one command into a temp dir and returns its path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = ".." // the module root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestIxcheckWordProblem(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := buildTool(t, "ixcheck")

	run := func(args ...string) (string, int) {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("run: %v", err)
		}
		return string(out), code
	}

	out, code := run("-e", "a - b", "a", "b")
	if code != 0 || !strings.Contains(out, "complete") {
		t.Errorf("complete word: %q (%d)", out, code)
	}
	out, code = run("-e", "a - b", "a")
	if code != 0 || !strings.Contains(out, "partial") {
		t.Errorf("partial word: %q (%d)", out, code)
	}
	out, code = run("-e", "a - b", "b")
	if code != 1 || !strings.Contains(out, "illegal") {
		t.Errorf("illegal word: %q (%d)", out, code)
	}
	out, code = run("-c", "-e", "all p: (call(p))*")
	if code != 0 || !strings.Contains(out, "benign") || !strings.Contains(out, "derivation") {
		t.Errorf("classification: %q (%d)", out, code)
	}
	// Parse errors exit 2 with a position.
	out, code = run("-e", "a - ")
	if code != 2 || !strings.Contains(out, "1:") {
		t.Errorf("parse error: %q (%d)", out, code)
	}
}

func TestIxcheckActionProblem(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := buildTool(t, "ixcheck")
	cmd := exec.Command(bin, "-e", "(a | b - c)*", "-i")
	cmd.Stdin = strings.NewReader("a\nc\nb\nc\n# comment\n\nzzz(\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	got := strings.Split(strings.TrimSpace(string(out)), "\n")
	want := []string{"Accept.", "Reject.", "Accept.", "Accept."}
	if len(got) < len(want) {
		t.Fatalf("output: %q", out)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("line %d: got %q want %q", i, got[i], w)
		}
	}
	if !strings.Contains(string(out), "Error:") {
		t.Errorf("malformed action should report an error: %q", out)
	}
}

// proc is a tool subprocess whose standard output is collected line by
// line.
type proc struct {
	mu    sync.Mutex
	lines []string
	more  chan struct{} // signalled when a line arrives
	done  chan struct{} // closed when the output ends: the process exited
}

// startProc launches a tool subprocess and kills it at cleanup.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", filepath.Base(bin), err)
	}
	p := &proc{more: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
			select {
			case p.more <- struct{}{}:
			default:
			}
		}
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-p.done
		cmd.Wait()
	})
	return p
}

// addr returns the address the process prints on the line that starts
// with prefix, after its last " on ": "serving ... on ADDR", "admin
// endpoint on ADDR", "metrics on http://ADDR/metrics". The tools listen
// on port 0 and print the port they were given, so no port is reserved
// and released first, for another process to take. It waits up to 10 s,
// and fails at once if the process exits first.
func (p *proc) addr(t *testing.T, prefix string) string {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for seen, exited := 0, false; ; {
		p.mu.Lock()
		lines := p.lines
		p.mu.Unlock()
		for ; seen < len(lines); seen++ {
			if line := lines[seen]; strings.HasPrefix(line, prefix) {
				a := strings.Fields(line[strings.LastIndex(line, " on ")+len(" on "):])[0]
				return strings.TrimSuffix(strings.TrimPrefix(a, "http://"), "/metrics")
			}
		}
		if exited {
			t.Fatalf("the process exited without printing %q", prefix)
		}
		select {
		case <-p.more:
		case <-p.done:
			exited = true
		case <-deadline:
			t.Fatalf("no %q line within 10 s", prefix)
		}
	}
}

// waitPort blocks until the address accepts connections, and fails at
// once if the process serving it exits.
func waitPort(t *testing.T, p *proc, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		select {
		case <-p.done:
			t.Fatalf("the process serving %s exited", addr)
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatalf("%s never came up", addr)
}

// adminReply mirrors ixgateway's admin response shape.
type adminReply struct {
	Op        string                `json:"op"`
	OK        bool                  `json:"ok"`
	Err       string                `json:"error"`
	Topology  []ix.ShardTopology    `json:"topology"`
	Stats     []ix.ShardStats       `json:"stats"`
	Traces    []ix.GrantTrace       `json:"traces"`
	Routes    *ix.RouteSnapshot     `json:"routes"`
	Autopilot *ix.AutopilotStatus   `json:"autopilot"`
	Plan      *ix.AutopilotDecision `json:"plan"`
}

// TestIxgatewayAdminEndpoint spins up a two-shard cluster as real
// subprocesses and exercises the gateway's admin endpoint end to end:
// topology, per-shard stats, grant traces, live migration, and the
// error paths (malformed JSON line, unknown op) — plus the Prometheus
// metrics endpoint.
func TestIxgatewayAdminEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	mgrBin := buildTool(t, "ixmanager")
	gwBin := buildTool(t, "ixgateway")

	const port0 = "127.0.0.1:0" // any free port
	m0 := startProc(t, mgrBin, "-e", "(a - b)*", "-addr", port0)
	m1 := startProc(t, mgrBin, "-e", "(a - c)*", "-addr", port0)
	shard0, shard1 := m0.addr(t, "ixmanager: serving"), m1.addr(t, "ixmanager: serving")
	waitPort(t, m0, shard0)
	waitPort(t, m1, shard1)
	gw := startProc(t, gwBin,
		"-e", "(a - b)* @ (a - c)*",
		"-shards", shard0+","+shard1,
		"-addr", port0, "-admin", port0, "-metrics", port0, "-trace", "16",
		"-autopilot-dry-run")
	gwAddr := gw.addr(t, "ixgateway: serving")
	admAddr := gw.addr(t, "ixgateway: admin endpoint on")
	metAddr := gw.addr(t, "ixgateway: metrics on")
	waitPort(t, gw, gwAddr)
	waitPort(t, gw, admAddr)
	waitPort(t, gw, metAddr)

	// Traffic through the gateway so stats and traces have content.
	cl, err := ix.Dial(gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	a, err := ix.ParseAction("a")
	if err != nil {
		t.Fatal(err)
	}
	tk, err := cl.Ask(ctx, a)
	if err != nil {
		t.Fatalf("ask through gateway: %v", err)
	}
	if err := cl.Confirm(ctx, tk); err != nil {
		t.Fatalf("confirm through gateway: %v", err)
	}

	// Admin conversation, one JSON line per op.
	conn, err := net.Dial("tcp", admAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	roundTrip := func(line string) adminReply {
		t.Helper()
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatalf("admin write: %v", err)
		}
		if !sc.Scan() {
			t.Fatalf("admin read after %q: %v", line, sc.Err())
		}
		var rep adminReply
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			t.Fatalf("admin reply %q: %v", sc.Text(), err)
		}
		return rep
	}

	if rep := roundTrip(`{"op":"topology"}`); !rep.OK || len(rep.Topology) != 2 {
		t.Errorf("topology: %+v", rep)
	}
	rep := roundTrip(`{"op":"stats"}`)
	if !rep.OK || len(rep.Stats) != 2 {
		t.Fatalf("stats: %+v", rep)
	}
	for _, ss := range rep.Stats {
		if ss.Err != "" || ss.Stats.Role != "primary" {
			t.Errorf("shard %d stats: %+v", ss.Shard, ss)
		}
		if ss.Stats.AskRate < 0 || ss.Stats.QueueDepth != 0 {
			t.Errorf("shard %d load: %+v", ss.Shard, ss.Stats)
		}
	}
	// Both shards saw the shared 'a'.
	if rep.Stats[0].Stats.Steps != 1 || rep.Stats[1].Stats.Steps != 1 {
		t.Errorf("shard steps: %d / %d want 1 / 1",
			rep.Stats[0].Stats.Steps, rep.Stats[1].Stats.Steps)
	}
	rep = roundTrip(`{"op":"trace"}`)
	if !rep.OK || len(rep.Traces) == 0 {
		t.Fatalf("trace: %+v", rep)
	}
	var confirmed bool
	for _, tr := range rep.Traces {
		if tr.Outcome == "confirmed" && len(tr.Events) >= 4 {
			confirmed = true
		}
	}
	if !confirmed {
		t.Errorf("no confirmed grant trace: %+v", rep.Traces)
	}

	// The versioned route table: one row per shard, every row at its
	// starting generation.
	rep = roundTrip(`{"op":"routes"}`)
	if !rep.OK || rep.Routes == nil || len(rep.Routes.Shards) != 2 {
		t.Fatalf("routes: %+v", rep)
	}
	genBefore := rep.Routes.Gen
	if r, ok := rep.Routes.Route(0); !ok || len(r.Addrs) != 1 || r.Addrs[0] != shard0 {
		t.Errorf("route 0: %+v", rep.Routes)
	}

	// Autopilot control: status (dry-run mode), pause/resume round-trip,
	// plan, and the unknown-cmd error path.
	rep = roundTrip(`{"op":"autopilot"}`)
	if !rep.OK || rep.Autopilot == nil || !rep.Autopilot.DryRun || rep.Autopilot.Paused {
		t.Fatalf("autopilot status: %+v", rep)
	}
	if rep := roundTrip(`{"op":"autopilot","cmd":"pause"}`); !rep.OK || rep.Autopilot == nil || !rep.Autopilot.Paused {
		t.Errorf("autopilot pause: %+v", rep)
	}
	if rep := roundTrip(`{"op":"autopilot","cmd":"resume"}`); !rep.OK || rep.Autopilot == nil || rep.Autopilot.Paused {
		t.Errorf("autopilot resume: %+v", rep)
	}
	if rep := roundTrip(`{"op":"autopilot","cmd":"plan"}`); !rep.OK || rep.Plan == nil {
		t.Errorf("autopilot plan: %+v", rep)
	}
	if rep := roundTrip(`{"op":"autopilot","cmd":"bogus"}`); rep.OK || !strings.Contains(rep.Err, "unknown autopilot cmd") {
		t.Errorf("autopilot bad cmd: %+v", rep)
	}

	// Error paths: a malformed line gets an error reply and the
	// connection keeps working; an unknown op is rejected by name.
	if rep := roundTrip(`{not json`); rep.Err == "" || !strings.Contains(rep.Err, "malformed") {
		t.Errorf("malformed line: %+v", rep)
	}
	if rep := roundTrip(`{"op":"bogus"}`); rep.Err == "" || !strings.Contains(rep.Err, "unknown admin op") {
		t.Errorf("unknown op: %+v", rep)
	}
	if rep := roundTrip(`{"op":"topology"}`); !rep.OK {
		t.Errorf("connection unusable after malformed line: %+v", rep)
	}

	// Live migration via admin: move shard 0 onto a fresh follower.
	fol := startProc(t, mgrBin, "-e", "(a - b)*", "-addr", port0, "-follower")
	target := fol.addr(t, "ixmanager: serving")
	waitPort(t, fol, target)
	if rep := roundTrip(fmt.Sprintf(`{"op":"migrate","shard":0,"target":%q,"retire":true}`, target)); !rep.OK {
		t.Fatalf("migrate: %+v", rep)
	}
	if rep := roundTrip(`{"op":"topology"}`); !rep.OK ||
		len(rep.Topology[0].Addrs) != 1 || rep.Topology[0].Addrs[0] != target {
		t.Errorf("topology after migrate: %+v", rep)
	}
	// The migration repointed the shared route table and bumped its
	// generation.
	rep = roundTrip(`{"op":"routes"}`)
	if !rep.OK || rep.Routes == nil || rep.Routes.Gen <= genBefore {
		t.Fatalf("routes after migrate: %+v", rep)
	}
	if r, ok := rep.Routes.Route(0); !ok || len(r.Addrs) != 1 || r.Addrs[0] != target {
		t.Errorf("route 0 after migrate: %+v", rep.Routes)
	}
	// The migrated shard still serves: finish the round through it.
	b, _ := ix.ParseAction("b")
	if err := cl.Request(ctx, b); err != nil {
		t.Errorf("request b after migration: %v", err)
	}

	// Prometheus endpoint.
	httpc := http.Client{Timeout: 5 * time.Second}
	resp, err := httpc.Get("http://" + metAddr + "/metrics")
	if err != nil {
		t.Fatalf("metrics endpoint: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"ix_gateway_reserves_total",
		"ix_gateway_grant_ns",
		`ix_shard_asks_total{shard="0"}`,
		"ix_migrate_phase_ns",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

func TestIxgraphRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short mode")
	}
	bin := buildTool(t, "ixgraph")
	out, err := exec.Command(bin, "-e", "(a | b)*").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "digraph interaction") {
		t.Errorf("DOT output: %q", out)
	}
	out, err = exec.Command(bin, "-ascii", "-e", "(a | b)*").CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "iter *") || !strings.Contains(string(out), "[a]") {
		t.Errorf("ASCII output: %q", out)
	}
	// Expression from a file.
	f := filepath.Join(t.TempDir(), "e.ix")
	if err := os.WriteFile(f, []byte("a - b"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(bin, "-ascii", "-f", f).CombinedOutput()
	if err != nil || !strings.Contains(string(out), "seq") {
		t.Errorf("file input: %v %q", err, out)
	}
}
