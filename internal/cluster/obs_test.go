package cluster

import (
	"slices"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/manager"
	"repro/internal/obs"
	"repro/internal/paper"
	"repro/internal/parse"
)

// startInstrumentedCluster is startCluster with a metrics registry and
// grant tracing wired into a replicated (single-replica) gateway.
func startInstrumentedCluster(t *testing.T, src string, traceCap int) (*Gateway, *obs.Registry) {
	t.Helper()
	e := parse.MustParse(src)
	parts := Partition(e)
	replicas := make([][]string, len(parts))
	var stops []*shard
	for i, part := range parts {
		sh := &shard{t: t, e: part, opts: manager.Options{ReservationTimeout: 2 * time.Second}}
		sh.start()
		replicas[i] = []string{sh.addr}
		stops = append(stops, sh)
	}
	reg := obs.NewRegistry()
	gw, err := NewReplicatedGateway(e, replicas, GatewayOptions{
		Metrics:       reg,
		TraceCapacity: traceCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gw.Close()
		for _, sh := range stops {
			sh.stop()
		}
	})
	if err := gw.Ping(bg); err != nil {
		t.Fatal(err)
	}
	return gw, reg
}

// TestGatewayMetricsAndTraces: every two-phase grant moves the gateway's
// counters and leaves a ticket-scoped trace with per-shard reserve and
// settle events — confirmed, aborted and refused outcomes alike.
func TestGatewayMetricsAndTraces(t *testing.T) {
	// 'a' is shared between both shards, 'b' and 'c' are single-shard.
	gw, reg := startInstrumentedCluster(t, "(a - b)* @ (a - c)*", 8)

	tk, err := gw.Ask(bg, act("a"))
	if err != nil {
		t.Fatalf("ask a: %v", err)
	}
	if err := gw.Confirm(bg, tk); err != nil {
		t.Fatalf("confirm a: %v", err)
	}
	// Refused: 'a' is not permissible again until b and c happened.
	if _, err := gw.Ask(bg, act("a")); err == nil {
		t.Fatal("expected refusal for second a")
	}
	// Aborted: reserve b, then roll it back.
	tk2, err := gw.Ask(bg, act("b"))
	if err != nil {
		t.Fatalf("ask b: %v", err)
	}
	if err := gw.Abort(bg, tk2); err != nil {
		t.Fatalf("abort b: %v", err)
	}

	var confirmed, refused, aborted GrantTrace
	for _, tr := range gw.Traces() {
		switch tr.Outcome {
		case OutcomeConfirmed:
			confirmed = tr
		case OutcomeRefused:
			refused = tr
		case OutcomeAborted:
			aborted = tr
		}
	}
	if confirmed.Outcome == "" || refused.Outcome == "" || aborted.Outcome == "" {
		t.Fatalf("missing outcomes in traces: %+v", gw.Traces())
	}
	// The confirmed grant of the shared 'a' touched both shards twice:
	// one reserve and one confirm each.
	var reserves, confirms int
	shardsSeen := map[int]bool{}
	for _, ev := range confirmed.Events {
		shardsSeen[ev.Shard] = true
		switch ev.Phase {
		case PhaseReserve:
			reserves++
		case PhaseConfirm:
			confirms++
		}
		if ev.DurNs < 0 {
			t.Errorf("negative event duration: %+v", ev)
		}
		if ev.At.IsZero() {
			t.Errorf("event without timestamp: %+v", ev)
		}
	}
	if reserves != 2 || confirms != 2 || len(shardsSeen) != 2 {
		t.Errorf("confirmed trace events off: %d reserves, %d confirms, shards %v\n%+v",
			reserves, confirms, shardsSeen, confirmed.Events)
	}
	if confirmed.Ticket == 0 {
		t.Errorf("confirmed trace lost its gateway ticket")
	}
	if confirmed.End.Before(confirmed.Start) {
		t.Errorf("trace ends before it starts: %+v", confirmed)
	}
	// The refusal recorded the shard error on a reserve event.
	var refusalErr bool
	for _, ev := range refused.Events {
		if ev.Phase == PhaseReserve && ev.Err != "" {
			refusalErr = true
		}
	}
	if !refusalErr {
		t.Errorf("refused trace has no erroring reserve: %+v", refused.Events)
	}
	// The abort settled with abort events.
	var aborts int
	for _, ev := range aborted.Events {
		if ev.Phase == PhaseAbort {
			aborts++
		}
	}
	if aborts == 0 {
		t.Errorf("aborted trace has no abort events: %+v", aborted.Events)
	}

	snap := reg.Snapshot()
	// 2 reserves for the shared 'a', 1 for 'b'; the refused retry of
	// 'a' counts as a refusal, not a reserve.
	if got := snap.Counters["ix_gateway_reserves_total"]; got < 3 {
		t.Errorf("reserves counter: got %d want >= 3", got)
	}
	if got := snap.Counters["ix_gateway_reserve_refusals_total"]; got < 1 {
		t.Errorf("reserve refusals counter: got %d want >= 1", got)
	}
	if got := snap.Counters["ix_gateway_confirms_total"]; got < 1 {
		t.Errorf("confirms counter: got %d want >= 1", got)
	}
	if got := snap.Counters["ix_gateway_aborts_total"]; got < 1 {
		t.Errorf("aborts counter: got %d want >= 1", got)
	}
	if h := snap.Hists["ix_gateway_grant_ns"]; h.Count < 1 {
		t.Errorf("grant latency histogram empty: %+v", h)
	}
	// Per-shard ask meters render with a shard label.
	if got := snap.Counters[`ix_shard_asks_total{shard="0"}`]; got < 2 {
		t.Errorf(`shard 0 ask meter total: got %d want >= 2 (counters: %v)`, got, snap.Counters)
	}
}

// TestGatewayTracePending: an unsettled ask-path grant is visible as a
// pending trace while its ticket is open.
func TestGatewayTracePending(t *testing.T) {
	gw, _ := startInstrumentedCluster(t, "(a - b)* @ (a - c)*", 8)
	if _, err := gw.Ask(bg, act("a")); err != nil {
		t.Fatalf("ask: %v", err)
	}
	var pending int
	for _, tr := range gw.Traces() {
		if tr.Outcome == OutcomePending {
			pending++
			if tr.Ticket == 0 {
				t.Errorf("pending trace without ticket: %+v", tr)
			}
		}
	}
	if pending != 1 {
		t.Errorf("pending traces: got %d want 1", pending)
	}
}

// TestGatewayTracingDisabled: a negative trace capacity turns tracing
// off entirely; metrics keep working.
func TestGatewayTracingDisabled(t *testing.T) {
	gw, reg := startInstrumentedCluster(t, "(a - b)* @ (a - c)*", -1)
	if err := gw.Request(bg, act("a")); err != nil {
		t.Fatalf("request: %v", err)
	}
	if trs := gw.Traces(); len(trs) != 0 {
		t.Errorf("traces despite disabled tracing: %+v", trs)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["ix_gateway_reserves_total"]; got < 2 {
		t.Errorf("reserves counter: got %d want >= 2", got)
	}
	if h := snap.Hists["ix_gateway_grant_ns"]; h.Count < 1 {
		t.Errorf("grant latency histogram empty without tracing: %+v", h)
	}
}

// TestGrantExchanges counts the wire requests each kind of Fig 7
// operation costs the shard servers: a single-shard Request is one
// exchange with its shard, a cross-shard grant a reserve and a confirm at
// each of the two shards, and a burst of single-shard actions one frame
// to their shard.
func TestGrantExchanges(t *testing.T) {
	e := paper.Fig7Coupled()
	parts := Partition(e)
	regs := make([]*obs.Registry, len(parts))
	addrs := make([]string, len(parts))
	for i, part := range parts {
		regs[i] = obs.NewRegistry()
		sh := &shard{t: t, e: part, opts: manager.Options{Metrics: regs[i]}}
		sh.start()
		t.Cleanup(sh.stop)
		addrs[i] = sh.addr
	}
	gw, err := NewGateway(e, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	framesIn := func() []uint64 {
		return []uint64{regs[0].Counter("ix_wire_frames_in_total").Load(), regs[1].Counter("ix_wire_frames_in_total").Load()}
	}
	exchanges := func(burst ...expr.Action) []uint64 {
		t.Helper()
		before := framesIn()
		errs := []error{nil}
		if len(burst) == 1 {
			errs[0] = gw.Request(bg, burst[0])
		} else {
			errs = gw.RequestMany(bg, burst)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: %v", burst[i], err)
			}
		}
		after := framesIn()
		return []uint64{after[0] - before[0], after[1] - before[1]}
	}
	p := paper.Patient
	exchanges(paper.CallAct(p(0), paper.ExamSono)) // warm-up: dials both shards

	for _, tc := range []struct {
		burst []expr.Action
		want  []uint64
	}{
		{[]expr.Action{paper.PrepareAct(p(1), paper.ExamSono)}, []uint64{1, 0}},
		{[]expr.Action{paper.CallAct(p(2), paper.ExamSono)}, []uint64{2, 2}},
		{[]expr.Action{paper.PerformAct(p(2), paper.ExamSono)}, []uint64{2, 2}},
		{[]expr.Action{paper.PrepareAct(p(3), paper.ExamSono), paper.PrepareAct(p(4), paper.ExamEndo),
			paper.InformAct(p(5), paper.ExamSono), paper.PrepareAct(p(6), paper.ExamSono)}, []uint64{1, 0}},
	} {
		if got := exchanges(tc.burst...); !slices.Equal(got, tc.want) {
			t.Errorf("%v: wire requests per shard %v, want %v", tc.burst, got, tc.want)
		}
	}
}
