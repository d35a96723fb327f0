package manager

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/parse"
)

// startMetricServer is startServer with a metrics registry attached, so
// the stats snapshot has a metrics section to report.
func startMetricServer(t *testing.T, src string) (*Server, *Manager, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	m := MustNew(parse.MustParse(src), Options{
		ReservationTimeout: 2 * time.Second,
		Metrics:            reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(m, ln)
	t.Cleanup(func() {
		s.Close()
		m.Close()
	})
	return s, m, reg
}

// TestStatsOverWire: the stats op serves the manager's load-accounting
// snapshot — protocol counts, cache hit rates, queue depth, ask rate —
// to a remote client (the seam the autopilot controller reads).
func TestStatsOverWire(t *testing.T) {
	s, _, reg := startMetricServer(t, "(a - b)*")
	c := dial(t, s)

	for i := 0; i < 3; i++ {
		tk, err := c.Ask(bg, act("a"))
		if err != nil {
			t.Fatalf("ask %d: %v", i, err)
		}
		if err := c.Confirm(bg, tk); err != nil {
			t.Fatalf("confirm %d: %v", i, err)
		}
		if err := c.Request(bg, act("b")); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// One denial: after (a-b) completes a round, b is not permissible.
	if _, err := c.Ask(bg, act("b")); err == nil {
		t.Fatal("expected denial for b")
	}

	st, err := c.Stats(bg)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Role != RolePrimary {
		t.Errorf("role: got %q want %q", st.Role, RolePrimary)
	}
	if st.Steps != 6 {
		t.Errorf("steps: got %d want 6", st.Steps)
	}
	if st.Protocol.Asks < 4 || st.Protocol.Grants < 6 || st.Protocol.Confirms < 6 || st.Protocol.Denies < 1 {
		t.Errorf("protocol counts off: %+v", st.Protocol)
	}
	if st.MemoHitRate < 0 || st.MemoHitRate > 1 {
		t.Errorf("memo hit rate out of range: %v", st.MemoHitRate)
	}
	// The repeated (a-b)* rounds revisit memoized transitions.
	if st.Cache.MemoHits == 0 {
		t.Errorf("expected memo hits after repeated rounds: %+v", st.Cache)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth: got %d want 0 (no batching)", st.QueueDepth)
	}
	if st.AskRate < 0 {
		t.Errorf("ask rate negative: %v", st.AskRate)
	}
	if st.Metrics == nil {
		t.Fatal("metrics snapshot missing despite registry")
	}
	if got := st.Metrics.Counters[mAsks]; got < 4 {
		t.Errorf("%s: got %d want >= 4", mAsks, got)
	}
	if got := st.Metrics.Counters[mConfirms]; got < 6 {
		t.Errorf("%s: got %d want >= 6", mConfirms, got)
	}

	// The wire server shares the registry: the conversation above must
	// have counted frames and timed per-op service latency.
	snap := reg.Snapshot()
	if snap.Counters["ix_wire_frames_in_total"] == 0 || snap.Counters["ix_wire_frames_out_total"] == 0 {
		t.Errorf("wire frame counters not moving: %v", snap.Counters)
	}
	if snap.Counters["ix_wire_bytes_in_total"] == 0 || snap.Counters["ix_wire_bytes_out_total"] == 0 {
		t.Errorf("wire byte counters not moving: %v", snap.Counters)
	}
	var opHists int
	for name, h := range snap.Hists {
		if strings.HasPrefix(name, "ix_wire_op_ns{") && h.Count > 0 {
			opHists++
		}
	}
	if opHists == 0 {
		t.Errorf("no per-op latency histograms recorded: %v", snap.Hists)
	}
}

// TestStatsWithoutInstrumentation: a bare manager (no registry) still
// answers the stats op — the cache section is there on every manager,
// the optional metrics section is just absent.
func TestStatsWithoutInstrumentation(t *testing.T) {
	s, _ := startServer(t, "a - b")
	c := dial(t, s)
	if err := c.Request(bg, act("a")); err != nil {
		t.Fatalf("request: %v", err)
	}
	st, err := c.Stats(bg)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Steps != 1 || st.Role != RolePrimary {
		t.Errorf("snapshot off: %+v", st)
	}
	if st.Cache.MemoMisses == 0 || st.Cache.Nodes == 0 {
		t.Errorf("cache section missing from a bare manager's stats: %+v", st.Cache)
	}
	if st.Metrics != nil {
		t.Errorf("metrics snapshot present without a registry")
	}
}
