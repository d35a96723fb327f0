// Package ix is the public API of the interaction-expression library, a
// Go implementation of
//
//	C. Heinlein: "Workflow and Process Synchronization with Interaction
//	Expressions and Graphs", Proc. ICDE 2001.
//
// Interaction expressions declaratively specify synchronization
// conditions — in particular inter-workflow dependencies — as an
// extended-regular-expression formalism with sequential and parallel
// composition and iteration, disjunction, conjunction, an open-world
// coupling operator, multipliers and four quantifiers over an infinite
// value universe.
//
// The three layers of the package mirror the paper:
//
//   - expressions: build them with the constructor functions (Seq, Par,
//     Or, ...) or parse the text syntax with Parse ("a - b || c*",
//     "all p: (call(p) - perform(p))*");
//   - execution: a System holds the operational state of one expression
//     and answers the word problem (Word) and the action problem (Try/
//     Step) deterministically and incrementally;
//   - coordination: a Manager supervises concurrently executing clients
//     (e.g. workflow engines) with the ask/reply/execute/confirm
//     coordination protocol and a subscription protocol for worklist
//     updates, in process or over TCP.
//
// A minimal session:
//
//	e := ix.MustParse("all p: (call(p) - perform(p))*")
//	sys := ix.NewSystem(e)
//	sys.Step(ix.MustAction("call(alice)"))   // ok
//	sys.Try(ix.MustAction("call(alice)"))    // false: alice is busy
//	sys.Step(ix.MustAction("perform(alice)"))
package ix

import (
	"repro/internal/cluster"
	"repro/internal/complexity"
	"repro/internal/expr"
	"repro/internal/graph"
	"repro/internal/manager"
	"repro/internal/mq"
	"repro/internal/obs"
	"repro/internal/parse"
	"repro/internal/placement"
	"repro/internal/semantics"
	"repro/internal/state"
)

// Core types, re-exported from the implementation packages. The aliases
// keep the full method sets available without exposing import paths.
type (
	// Expr is an immutable interaction expression.
	Expr = expr.Expr
	// Action is an (abstract or concrete) action; concrete actions have
	// only value arguments and are the things that execute.
	Action = expr.Action
	// Arg is one action argument: a value or a formal parameter.
	Arg = expr.Arg
	// Alphabet is the set of action patterns an expression mentions.
	Alphabet = expr.Alphabet
	// Verdict classifies a word: Complete, Partial or Illegal.
	Verdict = state.Verdict
	// Parser parses expression programs and keeps user-defined operator
	// templates across calls.
	Parser = parse.Parser
	// Graph is the interaction-graph rendering of an expression.
	Graph = graph.Graph
	// Manager is the interaction manager (Sec 7 of the paper).
	Manager = manager.Manager
	// ManagerOptions configure a Manager.
	ManagerOptions = manager.Options
	// Ticket identifies a granted ask awaiting confirm/abort.
	Ticket = manager.Ticket
	// Inform is one subscription notification.
	Inform = manager.Inform
	// Subscription delivers Informs for one action.
	Subscription = manager.Subscription
	// Server exposes a Manager over TCP.
	Server = manager.Server
	// Client talks to a remote Manager.
	Client = manager.Client
	// Router distributes a coupled expression over several managers.
	Router = manager.Router
	// Stats counts protocol traffic.
	Stats = manager.Stats
	// Queue is a durable, crash-safe FIFO message queue (paper ref [1]).
	Queue = mq.Queue
	// QueueOptions configure a Queue.
	QueueOptions = mq.Options
	// QueuedServer serves a Manager over persistent message queues.
	QueuedServer = manager.QueuedServer
	// QueuedClient talks to a Manager over persistent message queues.
	QueuedClient = manager.QueuedClient
	// Coordinator is the coordination surface a wire server exposes; both
	// Manager (via CoordinatorFor) and Gateway implement it.
	Coordinator = manager.Coordinator
	// DialOptions tune a client connection (e.g. a custom transport).
	DialOptions = manager.DialOptions
	// Gateway coordinates a coupled expression across remote shard
	// servers (the distributed scale-out of Sec 7).
	Gateway = cluster.Gateway
	// GatewayOptions configure a replicated gateway.
	GatewayOptions = cluster.GatewayOptions
	// ShardClient is a reconnecting, failing-over wire client for one
	// shard — a single server or an ordered replica set.
	ShardClient = cluster.ShardClient
	// ShardOptions configure a replica-set shard client.
	ShardOptions = cluster.ShardOptions
	// ReplStatus identifies a replica: role, epoch and commit position.
	ReplStatus = manager.ReplStatus
	// ReplFrame is one replicated commit frame.
	ReplFrame = manager.ReplFrame
	// TopologyInfo describes a manager's replication identity, follower
	// streams and drain state.
	TopologyInfo = manager.TopologyInfo
	// Rebalancer drives live shard migrations against a gateway
	// (add server → resync → drain → promote → retire).
	Rebalancer = cluster.Rebalancer
	// MigrateOptions tune one live migration.
	MigrateOptions = cluster.MigrateOptions
	// ShardTopology pairs a shard's route table with its primary's view.
	ShardTopology = cluster.ShardTopology
	// MetricsRegistry names, holds and renders the observability
	// instruments (counters, gauges, meters, latency histograms).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time reading of a registry.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot carries a histogram's count/sum/max and the
	// p50/p90/p99/p999 quantile estimates.
	HistogramSnapshot = obs.HistogramSnapshot
	// StatsSnapshot is a manager's load-accounting view (role, rates,
	// queue depth, cache hit rates) served by the stats wire op.
	StatsSnapshot = manager.StatsSnapshot
	// ShardStats pairs a shard's route info with its primary's
	// StatsSnapshot — the Rebalancer's per-shard load view.
	ShardStats = cluster.ShardStats
	// GrantTrace is the event record of one two-phase gateway grant.
	GrantTrace = cluster.GrantTrace
	// TraceEvent is one shard-side step of a grant trace.
	TraceEvent = cluster.TraceEvent
	// RouteTable is the control plane's shared, versioned shard →
	// replica-set mapping; N gateways follow one table and every
	// topology change fans out to the whole fleet.
	RouteTable = placement.RouteTable
	// RouteSnapshot is an atomic copy of a route table.
	RouteSnapshot = placement.Snapshot
	// ShardRoute is one shard's route-table row (endpoints + generation).
	ShardRoute = placement.ShardRoute
	// ShardLoad is one shard's load readout, the autopilot's input.
	ShardLoad = placement.ShardLoad
	// LoadSource polls per-shard load; Rebalancer satisfies it.
	LoadSource = placement.LoadSource
	// ShardMover executes one live migration; Rebalancer satisfies it.
	ShardMover = placement.Mover
	// Autopilot is the placement controller: a control loop that scores
	// per-shard load and schedules live migrations under hysteresis,
	// cooldown and a one-migration-at-a-time budget.
	Autopilot = placement.Controller
	// AutopilotOptions tune the placement controller.
	AutopilotOptions = placement.ControllerOptions
	// AutopilotDecision is one control-loop step's outcome.
	AutopilotDecision = placement.Decision
	// AutopilotStatus is the controller's admin readout.
	AutopilotStatus = placement.ControllerStatus
)

// Autopilot decision actions (AutopilotDecision.Action).
const (
	DecisionNone       = placement.DecisionNone
	DecisionHold       = placement.DecisionHold
	DecisionCooldown   = placement.DecisionCooldown
	DecisionNoSpare    = placement.DecisionNoSpare
	DecisionPaused     = placement.DecisionPaused
	DecisionPlan       = placement.DecisionPlan
	DecisionMigrate    = placement.DecisionMigrate
	DecisionPollFailed = placement.DecisionPollFailed
)

// Word verdicts (Fig 9 of the paper).
const (
	Illegal  = state.Illegal
	Partial  = state.Partial
	Complete = state.Complete
)

// Errors.
var (
	// ErrDenied is returned for actions the expression does not permit.
	ErrDenied = manager.ErrDenied
	// ErrRejected is returned by System.Step for impermissible actions.
	ErrRejected = state.ErrRejected
	// ErrConnLost reports a wire connection that died mid-request.
	ErrConnLost = manager.ErrConnLost
	// ErrSendFailed reports a request that never left this machine.
	ErrSendFailed = manager.ErrSendFailed
	// ErrNotPrimary reports a write sent to a follower (or deposed) replica.
	ErrNotPrimary = manager.ErrNotPrimary
	// ErrUncertain reports a commit applied locally whose replication acks
	// failed under SyncReplicas — the outcome is unknown to the client.
	ErrUncertain = manager.ErrUncertain
	// ErrDraining reports an ask refused by a manager that is migrating
	// away; transient and always safe to retry.
	ErrDraining = manager.ErrDraining
)

// --- building expressions ---------------------------------------------

// Val returns a concrete value argument.
func Val(name string) Arg { return expr.Val(name) }

// Prm returns a formal parameter argument (bound by a quantifier).
func Prm(name string) Arg { return expr.Prm(name) }

// Act builds an action.
func Act(name string, args ...Arg) Action { return expr.Act(name, args...) }

// ConcreteAct builds a concrete action from value strings.
func ConcreteAct(name string, values ...string) Action {
	return expr.ConcreteAct(name, values...)
}

// MustAction parses "name(v1,v2)" into a concrete action, panicking on
// malformed input. Use expr-level errors via ParseAction for user input.
func MustAction(s string) Action {
	a, err := expr.ParseActionString(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAction parses "name(v1,v2)" into a concrete action.
func ParseAction(s string) (Action, error) { return expr.ParseActionString(s) }

// Atom returns an atomic expression for one action.
func Atom(a Action) *Expr { return expr.Atom(a) }

// AtomNamed is shorthand for Atom(Act(name, args...)).
func AtomNamed(name string, args ...Arg) *Expr { return expr.AtomNamed(name, args...) }

// Empty returns the neutral expression ε.
func Empty() *Expr { return expr.Empty() }

// Opt returns y? (optional traversal).
func Opt(y *Expr) *Expr { return expr.Option(y) }

// Seq returns the sequential composition y1 - y2 - ...
func Seq(kids ...*Expr) *Expr { return expr.Seq(kids...) }

// Iter returns the sequential iteration y*.
func Iter(y *Expr) *Expr { return expr.SeqIter(y) }

// Par returns the parallel composition (shuffle) y1 || y2 || ...
func Par(kids ...*Expr) *Expr { return expr.Par(kids...) }

// ParIter returns the parallel iteration y# (arbitrarily many concurrent
// traversals).
func ParIter(y *Expr) *Expr { return expr.ParIter(y) }

// Or returns the disjunction y1 | y2 | ...
func Or(kids ...*Expr) *Expr { return expr.Or(kids...) }

// And returns the strict conjunction y1 & y2 & ...
func And(kids ...*Expr) *Expr { return expr.And(kids...) }

// Sync returns the synchronization (open-world coupling) y1 @ y2 @ ...
func Sync(kids ...*Expr) *Expr { return expr.Sync(kids...) }

// MultN returns mult(n, y): n concurrent independent instances of y.
func MultN(n int, y *Expr) *Expr { return expr.Mult(n, y) }

// Any returns the disjunction quantifier "any p: y" (for some p).
func Any(p string, y *Expr) *Expr { return expr.AnyQ(p, y) }

// All returns the parallel quantifier "all p: y" (for all p).
func All(p string, y *Expr) *Expr { return expr.AllQ(p, y) }

// SyncOver returns the synchronization quantifier "syncq p: y".
func SyncOver(p string, y *Expr) *Expr { return expr.SyncQ(p, y) }

// ConOver returns the conjunction quantifier "conq p: y".
func ConOver(p string, y *Expr) *Expr { return expr.ConQ(p, y) }

// ActivityExpr models an activity with positive duration as the sequence
// of its start and termination actions (name_s, name_t), per footnote 6
// of the paper.
func ActivityExpr(name string, args ...Arg) *Expr { return expr.Activity(name, args...) }

// AlphabetOf computes α(e), the action patterns e mentions.
func AlphabetOf(e *Expr) *Alphabet { return expr.AlphabetOf(e) }

// Parse parses an expression program: optional "def" operator templates
// followed by one expression. See package parse for the grammar.
func Parse(src string) (*Expr, error) { return parse.Parse(src) }

// MustParse is Parse that panics on error.
func MustParse(src string) *Expr { return parse.MustParse(src) }

// NewParser returns a parser whose "def" templates persist across calls.
func NewParser() *Parser { return parse.NewParser() }

// --- executing expressions ---------------------------------------------

// System executes one closed interaction expression: it tracks the
// operational state σ/τ̂/ϕ of Sec 4–5 of the paper and solves the word
// and action problems. A System is not safe for concurrent use; put a
// Manager in front for concurrent clients.
type System struct {
	en *state.Engine
}

// NewSystem creates a system in the initial state. It panics if the
// expression is not closed; use NewSystemErr for error handling.
func NewSystem(e *Expr) *System {
	return &System{en: state.MustEngine(e)}
}

// NewSystemErr creates a system, reporting malformed expressions.
func NewSystemErr(e *Expr) (*System, error) {
	en, err := state.NewEngine(e)
	if err != nil {
		return nil, err
	}
	return &System{en: en}, nil
}

// Expr returns the executed expression.
func (s *System) Expr() *Expr { return s.en.Expr() }

// Try reports whether the concrete action is currently permissible,
// without changing the state.
func (s *System) Try(a Action) bool { return s.en.Try(a) }

// Step consumes a permissible action or returns ErrRejected.
func (s *System) Step(a Action) error { return s.en.Step(a) }

// Final reports whether the consumed actions form a complete word.
func (s *System) Final() bool { return s.en.Final() }

// Valid reports whether the system is still in a valid state.
func (s *System) Valid() bool { return s.en.Valid() }

// Reset returns to the initial state.
func (s *System) Reset() { s.en.Reset() }

// Steps returns the number of consumed actions.
func (s *System) Steps() int { return s.en.Steps() }

// StateSize returns the size of the current operational state (the
// complexity measure of Sec 6).
func (s *System) StateSize() int { return s.en.StateSize() }

// Word solves the word problem for w from the initial state (the
// engine's current state is unaffected): Complete, Partial or Illegal.
func (s *System) Word(w []Action) Verdict { return s.en.Word(w) }

// --- coordination -------------------------------------------------------

// NewManager creates an interaction manager for e (Sec 7). With a
// LogPath in the options the manager persists confirmed actions and
// recovers from them at startup.
func NewManager(e *Expr, opts ManagerOptions) (*Manager, error) {
	return manager.New(e, opts)
}

// NewServer serves a manager on a net.Listener; see manager.NewServer.
var NewServer = manager.NewServer

// NewCoordServer serves any Coordinator (e.g. a Gateway) on a listener.
var NewCoordServer = manager.NewCoordServer

// CoordinatorFor returns the Coordinator view of a local manager.
var CoordinatorFor = manager.CoordinatorFor

// Dial connects to a manager server (or a gateway) over the binary wire
// protocol.
var Dial = manager.Dial

// DialWith connects with explicit options (e.g. a custom transport via
// DialOptions{Dialer: ...}).
var DialWith = manager.DialWith

// NewRouter splits a top-level coupling across multiple managers.
func NewRouter(e *Expr, opts ManagerOptions) (*Router, error) {
	return manager.NewRouter(e, opts)
}

// NewGateway builds a cluster gateway for e whose i-th coupling operand
// is served by the shard server at addrs[i].
func NewGateway(e *Expr, addrs []string) (*Gateway, error) {
	return cluster.NewGateway(e, addrs)
}

// NewReplicatedGateway builds a gateway whose i-th coupling operand is
// served by the ordered replica set replicas[i], with automatic failover
// and follower promotion.
func NewReplicatedGateway(e *Expr, replicas [][]string, opts GatewayOptions) (*Gateway, error) {
	return cluster.NewReplicatedGateway(e, replicas, opts)
}

// NewRouteTable builds a shared route table with one row per shard;
// pass it via GatewayOptions.RouteTable (with nil replicas) to attach a
// gateway to it.
func NewRouteTable(addrs [][]string) (*RouteTable, error) {
	return placement.NewRouteTable(addrs)
}

// MustRouteTable is NewRouteTable that panics on error.
var MustRouteTable = placement.MustRouteTable

// NewAutopilot builds a placement controller over a load source and a
// mover — typically both the same Rebalancer of a table-attached
// gateway. Drive it with Run (a polling goroutine) or Tick.
func NewAutopilot(src LoadSource, mv ShardMover, opts AutopilotOptions) *Autopilot {
	return placement.NewController(src, mv, opts)
}

// NewShardClient returns a reconnecting client for one shard server.
var NewShardClient = cluster.NewShardClient

// NewShardClientSet returns a failing-over client for an ordered shard
// replica set.
var NewShardClientSet = cluster.NewShardClientSet

// PartitionCoupling splits a coupled expression into its shard operands.
func PartitionCoupling(e *Expr) []*Expr { return cluster.Partition(e) }

// OpenQueue opens or creates a durable message queue file.
func OpenQueue(path string, opts QueueOptions) (*Queue, error) {
	return mq.Open(path, opts)
}

// NewQueuedServer serves the manager over persistent request/reply
// queues (Sec 7's queued communication, paper ref [1]). journalPath
// persists processed request IDs for exactly-once semantics.
func NewQueuedServer(m *Manager, req, rep *Queue, journalPath string) (*QueuedServer, error) {
	return manager.NewQueuedServer(m, req, rep, journalPath)
}

// NewQueuedClient creates a client submitting through the queues; the
// prefix keys request idempotency.
func NewQueuedClient(req, rep *Queue, prefix string) *QueuedClient {
	return manager.NewQueuedClient(req, rep, prefix)
}

// NewMetricsRegistry creates an empty metrics registry. Pass it via
// ManagerOptions.Metrics / GatewayOptions.Metrics / QueueOptions.Metrics
// to instrument those components, and render it with WritePrometheus or
// read it with Snapshot.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// --- analysis ------------------------------------------------------------

// GraphOf builds the interaction-graph view of an expression; render it
// with Graph.DOT (Graphviz) or Graph.ASCII (terminal tree).
func GraphOf(e *Expr) *Graph { return graph.FromExpr(e) }

// ComplexityClass is the Sec 6 benignity classification.
type ComplexityClass = complexity.Class

// Complexity classes.
const (
	Harmless             = complexity.Harmless
	Benign               = complexity.Benign
	PotentiallyMalignant = complexity.Unknown
)

// Classify applies the syntactic benignity criteria of Sec 6.
func Classify(e *Expr) (ComplexityClass, []string) { return complexity.Classify(e) }

// Derivation is a step-by-step benignity proof sketch (Sec 6's
// "evaluate step by step that a given expression is benign").
type Derivation = complexity.Derivation

// Derive builds the step-by-step benignity derivation for e.
func Derive(e *Expr) *Derivation { return complexity.Derive(e) }

// OracleVerdict decides a word with the executable formal semantics of
// Table 8 (the exponential reference algorithm — use System.Word for
// anything but tiny inputs; this exists for verification and the E12
// experiment).
func OracleVerdict(e *Expr, w []Action) Verdict {
	o := semantics.New(e, len(w))
	return Verdict(o.Verdict(semantics.Word(w)))
}
