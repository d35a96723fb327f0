package manager

import (
	"repro/internal/obs"
	"repro/internal/state"
)

// managerMetrics caches the manager's obs handles so hot paths pay one
// atomic op per event instead of a registry lookup. All handles are nil
// when metrics are disabled (obs methods no-op on nil), so instrumented
// code never branches on whether observability is on.
type managerMetrics struct {
	asks          *obs.Counter
	grants        *obs.Counter
	denies        *obs.Counter
	drainRefusals *obs.Counter
	confirms      *obs.Counter
	aborts        *obs.Counter
	askMeter      *obs.Meter
	batchSize     *obs.Histogram
	flushNs       *obs.Histogram
	replAckNs     *obs.Histogram
	replShipErrs  *obs.Counter
	replResyncs   *obs.Counter
	replFrames    *obs.Counter
}

// Metric names registered by a manager. The ask meter renders as
// ix_manager_asks_rate (gauge, trailing-10s asks/s) plus
// ix_manager_asks_total (counter).
const (
	mAsks          = "ix_manager_asks_total"
	mGrants        = "ix_manager_grants_total"
	mDenies        = "ix_manager_denies_total"
	mDrainRefusals = "ix_manager_drain_refusals_total"
	mConfirms      = "ix_manager_confirms_total"
	mAborts        = "ix_manager_aborts_total"
	mAskMeter      = "ix_manager_asks"
	mBatchSize     = "ix_manager_batch_size"
	mFlushNs       = "ix_manager_flush_ns"
	mReplAckNs     = "ix_manager_repl_ack_ns"
	mReplShipErrs  = "ix_manager_repl_ship_errors_total"
	mReplResyncs   = "ix_manager_repl_resyncs_total"
	mReplFrames    = "ix_manager_repl_frames_total"
	mQueueDepth    = "ix_manager_commit_queue_depth"
	mMemoHits      = "ix_manager_memo_hits"
	mMemoMisses    = "ix_manager_memo_misses"
	mMemoEntries   = "ix_manager_memo_entries"
	mStateNodes    = "ix_manager_state_nodes"
	mSteps         = "ix_manager_steps"
)

// initMetrics wires the manager into a registry. Called once from New;
// reg may be nil (metrics disabled).
func (m *Manager) initMetrics(reg *obs.Registry) {
	m.reg = reg
	m.metrics = managerMetrics{
		asks:          reg.Counter(mAsks),
		grants:        reg.Counter(mGrants),
		denies:        reg.Counter(mDenies),
		drainRefusals: reg.Counter(mDrainRefusals),
		confirms:      reg.Counter(mConfirms),
		aborts:        reg.Counter(mAborts),
		askMeter:      reg.Meter(mAskMeter),
		batchSize:     reg.Histogram(mBatchSize),
		flushNs:       reg.Histogram(mFlushNs),
		replAckNs:     reg.Histogram(mReplAckNs),
		replShipErrs:  reg.Counter(mReplShipErrs),
		replResyncs:   reg.Counter(mReplResyncs),
		replFrames:    reg.Counter(mReplFrames),
	}
	if reg == nil {
		return
	}
	// The ask meter's rate window runs on the manager's clock, not the
	// wall clock, so StatsSnapshot.AskRate — the autopilot's primary load
	// signal — is deterministic under the simulator's logical clock.
	obs.SetMeterClock(m.metrics.askMeter, func() int64 { return m.clk.Now().Unix() })
	reg.GaugeFunc(mSteps, func() int64 { return int64(m.Steps()) })
	if m.batch != nil {
		q := m.batch
		reg.GaugeFunc(mQueueDepth, func() int64 { return q.pending.Load() })
	}
	cacheGauge := func(name string, pick func(state.CacheStats) int64) {
		reg.GaugeFunc(name, func() int64 { cs, _ := m.CacheStats(); return pick(cs) })
	}
	cacheGauge(mMemoHits, func(cs state.CacheStats) int64 { return int64(cs.MemoHits) })
	cacheGauge(mMemoMisses, func(cs state.CacheStats) int64 { return int64(cs.MemoMisses) })
	cacheGauge(mMemoEntries, func(cs state.CacheStats) int64 { return int64(cs.MemoEntries) })
	cacheGauge(mStateNodes, func(cs state.CacheStats) int64 { return int64(cs.Nodes) })
}

// MetricsRegistry returns the registry the manager reports into (nil when
// metrics are disabled). The wire server discovers this through the
// MetricsSource interface to serve Prometheus scrapes.
func (m *Manager) MetricsRegistry() *obs.Registry { return m.reg }

// StatsSnapshot is the manager's full observability readout: role and
// progress, the protocol counters, the memo-cache counters (satellite:
// previously process-local only), and — when a registry is attached — a
// snapshot of every metric including latency histograms. It is the
// payload of the "stats" wire op and the admin "stats" op, and carries
// the three signals the autopilot roadmap item names: AskRate (asks/s),
// QueueDepth, and MemoHitRate.
type StatsSnapshot struct {
	Role        string           `json:"role"`
	Epoch       uint64           `json:"epoch"`
	Steps       int              `json:"steps"`
	Draining    bool             `json:"draining"`
	Final       bool             `json:"final"`
	Protocol    Stats            `json:"protocol"`
	Cache       state.CacheStats `json:"cache"`
	MemoHitRate float64          `json:"memo_hit_rate"`
	AskRate     float64          `json:"ask_rate"`
	QueueDepth  int64            `json:"queue_depth"`
	Metrics     *obs.Snapshot    `json:"metrics,omitempty"`
}

// StatsSnapshot collects the manager's observability readout.
func (m *Manager) StatsSnapshot() StatsSnapshot {
	m.mu.Lock()
	s := StatsSnapshot{
		Role:     m.statusLocked().Role,
		Epoch:    m.epoch,
		Steps:    m.en.Steps(),
		Draining: m.draining,
		Final:    m.en.Final(),
		Protocol: m.stats,
		Cache:    m.en.CacheStats(),
	}
	m.mu.Unlock()
	if total := s.Cache.MemoHits + s.Cache.MemoMisses; total > 0 {
		s.MemoHitRate = float64(s.Cache.MemoHits) / float64(total)
	}
	if m.batch != nil { // set once, in New
		s.QueueDepth = m.batch.pending.Load()
	}
	s.AskRate = m.metrics.askMeter.Rate()
	s.Metrics = m.reg.Snapshot()
	return s
}
