// Command ixgateway fronts a cluster of ixmanager shard servers: it
// partitions a top-level coupling y1 @ y2 @ ... @ yn by operand, routes
// every action to the shards whose alphabet mentions it, and executes the
// two-phase reserve/confirm grant across them — then serves the result on
// its own address, speaking the same binary wire protocol as a single
// manager. Clients cannot tell a gateway from a manager.
//
// Usage (shard i of the coupling must be served at the i-th address):
//
//	ixmanager -e '(submit - approve)*' -addr :7431 &
//	ixmanager -e '(approve - exec)*'   -addr :7432 &
//	ixgateway -e '(submit - approve)* @ (approve - exec)*' \
//	          -shards 127.0.0.1:7431,127.0.0.1:7432 -addr :7430
//
// A shard may be a replica set: separate the ordered replica addresses
// with '/' (primary first). The gateway then fails over automatically,
// promoting the most advanced surviving replica when the primary dies:
//
//	ixmanager -e '(submit - approve)*' -addr :7431 -replicas 127.0.0.1:7441 -sync-replicas &
//	ixmanager -e '(submit - approve)*' -addr :7441 -follower &
//	ixgateway -e '(submit - approve)* @ (approve - exec)*' \
//	          -shards 127.0.0.1:7431/127.0.0.1:7441,127.0.0.1:7432 -addr :7430
//
// With -admin the gateway additionally serves a JSON-lines admin
// endpoint for elastic rebalancing and observability: live shard
// migration, topology inspection, the versioned route table, per-shard
// load stats, grant traces and autopilot control, no restart required.
// One request per line:
//
//	{"op":"topology"}
//	{"op":"migrate","shard":0,"target":"127.0.0.1:7451","retire":true}
//	{"op":"stats"}
//	{"op":"trace"}
//	{"op":"routes"}
//	{"op":"autopilot","cmd":"status"}   (also: pause, resume, plan)
//
// With -autopilot the gateway runs the placement controller: it polls
// every shard's load signals (asks/s, queue depth, memo hit rate),
// scores them with an EWMA, and live-migrates a persistently hot shard
// onto one of its spares from -autopilot-spares (same syntax as
// -shards: one comma-separated slot per shard, '/' between spares,
// empty slot = no spares for that shard). -autopilot-dry-run plans the
// moves without executing them; pause/resume/plan are served on the
// admin endpoint.
//
// With -metrics the gateway serves its registry (wire traffic, per-shard
// ask rates, two-phase grant outcomes and latencies, migration phase
// durations) in Prometheus text format at http://ADDR/metrics.
//
// The target must already run as a follower (ixmanager -follower) for
// the shard's operand. The migration drains the source, promotes the
// target into a fresh epoch and repoints the gateway's route table —
// in-flight client traffic keeps working throughout.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/ix"
)

func main() {
	var (
		exprSrc      = flag.String("e", "", "coupled interaction expression (text syntax)")
		exprFile     = flag.String("f", "", "file containing the expression")
		shardCSV     = flag.String("shards", "", "comma-separated shard addresses, one per coupling operand; separate replica addresses within a shard with '/'")
		addr         = flag.String("addr", "127.0.0.1:7430", "listen address")
		readRepls    = flag.Bool("read-followers", false, "serve Try probes from follower replicas")
		adminAddr    = flag.String("admin", "", "serve the JSON-lines admin endpoint (migrate/topology/stats/trace) on this address")
		metricAddr   = flag.String("metrics", "", "serve Prometheus-text metrics over HTTP on this address (path /metrics)")
		traceCap     = flag.Int("trace", 0, "grant trace ring capacity (0 = default 256, negative = tracing off)")
		autopilot    = flag.Bool("autopilot", false, "run the autopilot placement controller (hot shards migrate onto -autopilot-spares)")
		autoSpares   = flag.String("autopilot-spares", "", "per-shard spare follower addresses, same syntax as -shards (empty slot = no spares for that shard)")
		autoInterval = flag.Duration("autopilot-interval", 0, "autopilot poll interval (0 = default 2s)")
		autoDryRun   = flag.Bool("autopilot-dry-run", false, "autopilot plans migrations without executing them (implies -autopilot)")
	)
	flag.Parse()

	src := *exprSrc
	if *exprFile != "" {
		buf, err := os.ReadFile(*exprFile)
		if err != nil {
			fatal(err)
		}
		src = string(buf)
	}
	if src == "" || *shardCSV == "" {
		fmt.Fprintln(os.Stderr, "ixgateway: provide an expression (-e or -f) and -shards")
		flag.Usage()
		os.Exit(2)
	}
	e, err := ix.Parse(src)
	if err != nil {
		fatal(err)
	}
	shardSpecs := strings.Split(*shardCSV, ",")
	replicas := make([][]string, len(shardSpecs))
	for i, spec := range shardSpecs {
		for _, a := range strings.Split(spec, "/") {
			replicas[i] = append(replicas[i], strings.TrimSpace(a))
		}
	}

	// The gateway serves from a shared, versioned route table (the admin
	// "routes" op dumps it); the autopilot repoints it through live
	// migrations.
	table, err := ix.NewRouteTable(replicas)
	if err != nil {
		fatal(err)
	}
	reg := ix.NewMetricsRegistry()
	gw, err := ix.NewReplicatedGateway(e, nil, ix.GatewayOptions{
		RouteTable:        table,
		ReadFromFollowers: *readRepls,
		Metrics:           reg,
		TraceCapacity:     *traceCap,
	})
	if err != nil {
		fatal(err)
	}
	defer gw.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = gw.Ping(ctx)
	cancel()
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := ix.NewCoordServer(gw, ln)
	defer srv.Close()

	parts := ix.PartitionCoupling(e)
	fmt.Printf("ixgateway: serving %d-shard coupling on %s\n", len(parts), srv.Addr())
	for i, p := range parts {
		fmt.Printf("  shard %d at %s: %s\n", i, strings.Join(replicas[i], "/"), p)
	}

	var ctrl *ix.Autopilot
	if *autopilot || *autoDryRun {
		spares, err := parseSpares(*autoSpares, len(replicas))
		if err != nil {
			fatal(err)
		}
		reb := gw.Rebalancer()
		ctrl = ix.NewAutopilot(reb, reb, ix.AutopilotOptions{
			Interval: *autoInterval,
			Spares:   spares,
			DryRun:   *autoDryRun,
			Metrics:  reg,
		})
		actx, acancel := context.WithCancel(context.Background())
		defer acancel()
		go ctrl.Run(actx)
		mode := "live"
		if *autoDryRun {
			mode = "dry-run"
		}
		fmt.Printf("ixgateway: autopilot on (%s)\n", mode)
	}

	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal(err)
		}
		defer aln.Close()
		go serveAdmin(aln, gw, ctrl)
		fmt.Printf("ixgateway: admin endpoint on %s\n", aln.Addr())
	}

	if *metricAddr != "" {
		mln, err := net.Listen("tcp", *metricAddr)
		if err != nil {
			fatal(err)
		}
		defer mln.Close()
		go serveMetrics(mln, reg)
		fmt.Printf("ixgateway: metrics on http://%s/metrics\n", mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("ixgateway: shutting down")
}

// parseSpares parses the -autopilot-spares flag: one comma-separated
// slot per shard, '/' between a slot's spare addresses, an empty slot
// meaning no spares for that shard. An empty flag means no spares at
// all (the autopilot observes and holds).
func parseSpares(spec string, shards int) ([][]string, error) {
	spares := make([][]string, shards)
	if spec == "" {
		return spares, nil
	}
	slots := strings.Split(spec, ",")
	if len(slots) != shards {
		return nil, fmt.Errorf("-autopilot-spares has %d slots, want one per shard (%d)", len(slots), shards)
	}
	for i, slot := range slots {
		for _, a := range strings.Split(slot, "/") {
			if a = strings.TrimSpace(a); a != "" {
				spares[i] = append(spares[i], a)
			}
		}
	}
	return spares, nil
}

// adminMsg is one admin request or reply (JSON lines, one per op).
type adminMsg struct {
	Op     string `json:"op"`
	Shard  int    `json:"shard,omitempty"`
	Target string `json:"target,omitempty"`
	Retire bool   `json:"retire,omitempty"`
	Cmd    string `json:"cmd,omitempty"`

	OK        bool                  `json:"ok,omitempty"`
	Err       string                `json:"error,omitempty"`
	Topology  []ix.ShardTopology    `json:"topology,omitempty"`
	Stats     []ix.ShardStats       `json:"stats,omitempty"`
	Traces    []ix.GrantTrace       `json:"traces,omitempty"`
	Routes    *ix.RouteSnapshot     `json:"routes,omitempty"`
	Autopilot *ix.AutopilotStatus   `json:"autopilot,omitempty"`
	Plan      *ix.AutopilotDecision `json:"plan,omitempty"`
}

// adminAutopilot serves the autopilot admin op: status (the default),
// pause, resume and plan.
func adminAutopilot(ctrl *ix.Autopilot, cmd string) (*ix.AutopilotStatus, *ix.AutopilotDecision, string) {
	if ctrl == nil {
		return nil, nil, "autopilot not enabled (run ixgateway with -autopilot or -autopilot-dry-run)"
	}
	switch cmd {
	case "", "status":
	case "pause":
		ctrl.Pause()
	case "resume":
		ctrl.Resume()
	case "plan":
		d := ctrl.Plan()
		return nil, &d, ""
	default:
		return nil, nil, fmt.Sprintf("unknown autopilot cmd %q (want status, pause, resume or plan)", cmd)
	}
	st := ctrl.Status()
	return &st, nil, ""
}

// serveAdmin answers migrate/topology/stats/trace/routes/autopilot
// requests, one JSON line each. Requests are read line-wise so a
// malformed line earns an error reply instead of poisoning the
// connection.
func serveAdmin(ln net.Listener, gw *ix.Gateway, ctrl *ix.Autopilot) {
	reb := gw.Rebalancer()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			defer conn.Close()
			enc := json.NewEncoder(conn)
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
			for sc.Scan() {
				line := strings.TrimSpace(sc.Text())
				if line == "" {
					continue
				}
				var req adminMsg
				if err := json.Unmarshal([]byte(line), &req); err != nil {
					if err := enc.Encode(adminMsg{Err: fmt.Sprintf("malformed request: %v", err)}); err != nil {
						return
					}
					continue
				}
				resp := adminMsg{Op: req.Op}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				switch req.Op {
				case "topology":
					tops, err := reb.Topology(ctx)
					resp.Topology = tops
					if err != nil {
						resp.Err = err.Error()
					} else {
						resp.OK = true
					}
				case "migrate":
					if err := reb.MigrateShard(ctx, req.Shard, req.Target,
						ix.MigrateOptions{Retire: req.Retire}); err != nil {
						resp.Err = err.Error()
					} else {
						resp.OK = true
					}
				case "stats":
					stats, err := reb.Stats(ctx)
					resp.Stats = stats
					if err != nil {
						resp.Err = err.Error()
					} else {
						resp.OK = true
					}
				case "trace":
					resp.Traces = gw.Traces()
					resp.OK = true
				case "routes":
					if table := gw.RouteTable(); table != nil {
						snap := table.Snapshot()
						resp.Routes = &snap
						resp.OK = true
					} else {
						resp.Err = "no route table attached"
					}
				case "autopilot":
					resp.Autopilot, resp.Plan, resp.Err = adminAutopilot(ctrl, req.Cmd)
					resp.OK = resp.Err == ""
				default:
					resp.Err = fmt.Sprintf("unknown admin op %q", req.Op)
				}
				cancel()
				if err := enc.Encode(resp); err != nil {
					return
				}
			}
		}(conn)
	}
}

// serveMetrics exposes the gateway's registry in Prometheus text format.
func serveMetrics(ln net.Listener, reg *ix.MetricsRegistry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	http.Serve(ln, mux)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ixgateway:", err)
	os.Exit(2)
}
