package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing. A traced run keeps exactly one client request in flight, so
// every span recorded between the start and the end of a client call
// belongs to that call, and a span's parent is the innermost span that
// encloses it in time. Spans are recorded by the harness's own
// decorators at the seams the code offers (see decor.go); no file
// outside bench/ carries a span. They stay in memory and go to
// -trace-out when the run ends.

// spanName indexes spanNames; the layer is the part before the dot.
type spanName uint8

const (
	spClientOp spanName = iota
	spWireCall
	spClusterRequest
	spClusterExchange
	spManagerNew
	spManagerRequest
	spManagerAsk
	spManagerConfirm
	spManagerClose
	spManagerReplay
	spStorageBuffer
	spStorageCommit
	spStorageAppend
	spStorageSync
	spStorageCheckpoint
	spStorageCompact
	spStorageRestore
	spStorageReplay
	spReplAck
	spReplApply
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.op", "wire.call", "cluster.request", "cluster.exchange",
	"manager.new", "manager.request", "manager.ask", "manager.confirm", "manager.close", "manager.replay",
	"storage.buffer", "storage.commit", "storage.append", "storage.sync",
	"storage.checkpoint", "storage.compact", "storage.restore_chain", "storage.replay",
	"repl.ack", "repl.apply",
}

func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

// span is one recorded interval, in ns since the tracer's epoch.
type span struct {
	start, end int64
	req        uint32 // the client request it belongs to (0: none in flight)
	parent     int32  // index of the enclosing span, -1 for a root; set by resolve
	name       spanName
}

// maxSpans bounds the in-memory trace (32 B each). Past it spans are
// counted as dropped and the run says so.
const maxSpans = 4 << 20

// tracer records spans while enabled. The zero-cost path for an
// untraced run is a nil *tracer: every method is nil-safe.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	req     atomic.Uint32

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// on reports whether spans are being recorded.
func (t *tracer) on() bool { return t != nil && t.enabled.Load() }

// now is the tracer's clock; 0 while disabled, which end treats as "no
// span was begun".
func (t *tracer) now() int64 {
	if !t.on() {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// end records the span begun at start (a value of now).
func (t *tracer) end(name spanName, start int64) {
	if t.on() {
		t.span(name, start, int64(time.Since(t.epoch)))
	}
}

// span records a span from start to end (values of now).
func (t *tracer) span(name spanName, start, end int64) {
	if start == 0 || !t.on() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{start: start, end: end, req: t.req.Load(), parent: -1, name: name})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// nextRequest opens a new client request; spans recorded until the
// next call carry its id.
func (t *tracer) nextRequest() {
	if t != nil {
		t.req.Add(1)
	}
}

// resolve orders the spans by start and gives each the innermost
// enclosing span of the same request as its parent.
func (t *tracer) resolve() {
	sp := t.spans
	sort.SliceStable(sp, func(i, j int) bool {
		if sp[i].start != sp[j].start {
			return sp[i].start < sp[j].start
		}
		return sp[i].end > sp[j].end
	})
	var stack []int32
	for i := range sp {
		s := &sp[i]
		for len(stack) > 0 && sp[stack[len(stack)-1]].end <= s.start {
			stack = stack[:len(stack)-1]
		}
		s.parent = -1
		// Partially overlapping spans (work that runs beside the request
		// path, like a checkpoint during an ack wait) stay on the stack
		// but cannot be a parent.
		for k := len(stack) - 1; k >= 0; k-- {
			p := &sp[stack[k]]
			if p.end >= s.end && p.req == s.req {
				s.parent = stack[k]
				break
			}
		}
		stack = append(stack, int32(i))
	}
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count  int   `json:"count"`
	DurNs  int64 `json:"dur_ns"`
	SelfNs int64 `json:"self_ns"`
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	byName  [numSpanNames]spanStat
	layerNs map[string]int64 // self time per layer, spans inside client ops only
	rootNs  int64            // total duration of client.op spans
	roots   int
	spans   int
	dropped int
	// busyNs is, per layer, the length of the union of its spans: the
	// time the layer was doing something, however many spans overlapped.
	busyNs map[string]int64
}

// summarize resolves parents and computes each span's self time: its
// duration minus the part of it its child spans cover.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resolve()
	sp := t.spans
	sum := traceSummary{layerNs: map[string]int64{}, busyNs: map[string]int64{}, spans: len(sp), dropped: t.dropped}
	// Children arrive in start order, so the covered part of a parent is
	// a running union: cursor[p] is how far p is covered so far.
	covered := make([]int64, len(sp))
	cursor := make([]int64, len(sp))
	for i := range sp {
		cursor[i] = sp[i].start
	}
	inRoot := make([]bool, len(sp))
	for i := range sp {
		s := &sp[i]
		if s.name == spClientOp {
			inRoot[i] = true
			sum.rootNs += s.end - s.start
			sum.roots++
		}
		if p := s.parent; p >= 0 {
			inRoot[i] = inRoot[p]
			from := s.start
			if cursor[p] > from {
				from = cursor[p]
			}
			if s.end > from {
				covered[p] += s.end - from
				cursor[p] = s.end
			}
		}
	}
	layerEnd := map[string]int64{}
	for i := range sp {
		s := &sp[i]
		dur := s.end - s.start
		self := dur - covered[i]
		st := &sum.byName[s.name]
		st.Count++
		st.DurNs += dur
		st.SelfNs += self
		l := s.name.layer()
		if inRoot[i] {
			sum.layerNs[l] += self
		}
		from := s.start
		if layerEnd[l] > from {
			from = layerEnd[l]
		}
		if s.end > from {
			sum.busyNs[l] += s.end - from
			layerEnd[l] = s.end
		}
	}
	return sum
}

// writeTo writes one JSON object per span: name, start and end in ns
// since the tracer's epoch, parent span index and request id.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Req    uint32 `json:"req"`
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(rec{spanNames[s.name], s.start, s.end, s.parent, s.req}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
