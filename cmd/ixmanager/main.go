// Command ixmanager runs an interaction manager as a TCP server (the
// central scheduler of Sec 7 / Fig 10).
//
// Usage:
//
//	ixmanager -e 'all p: (call(p) - perform(p))*' -addr :7431 -log actions.log
//
// Clients speak the binary wire protocol of internal/manager (length-
// prefixed frames, one opcode per op); the ix package's Dial returns a
// typed client.
// With -log the manager persists confirmed actions and recovers its
// state from the log on restart; -storage-dir selects the segmented
// storage engine instead (sealed log segments, background compaction,
// delta checkpoints). With -multi a top-level coupling
// ("x @ y @ z") is split into one manager per operand behind a shared
// router — actions are granted iff every involved manager grants them.
package main

import (
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
		exprSrc  = flag.String("e", "", "interaction expression (text syntax)")
		exprFile = flag.String("f", "", "file containing the expression")
		addr     = flag.String("addr", "127.0.0.1:7431", "listen address")
		logPath  = flag.String("log", "", "action log for persistence/recovery")
		snapPath = flag.String("snapshot", "", "snapshot file for checkpoint recovery (restart replays only the log tail)")
		snapK    = flag.Int("snapshot-every", 1000, "write a checkpoint every K confirms (with -snapshot or -storage-dir)")
		storeDir = flag.String("storage-dir", "", "segmented storage directory (replaces -log/-snapshot): fixed-size sealed log segments, background compaction, delta checkpoints")
		segBytes = flag.Int64("segment-bytes", 0, "seal log segments at this size (with -storage-dir; 0 = 1 MiB)")
		deltaK   = flag.Int("delta-every", 8, "with -storage-dir, write a full checkpoint every K checkpoints and deltas in between (1 = always full)")
		timeout  = flag.Duration("reservation-timeout", 10*time.Second,
			"auto-abort asks not confirmed within this duration")
		batchMax   = flag.Int("batch", 0, "group commit: up to N queued actions per commit (0/1 = off)")
		syncWrites = flag.Bool("sync", false, "fsync the action log at every durability point (once per group commit)")
		replicaCSV = flag.String("replicas", "", "comma-separated follower server addresses to stream commits to")
		syncRepl   = flag.Bool("sync-replicas", false, "acknowledge commits only after every follower acked (no-loss failover)")
		follower   = flag.Bool("follower", false, "start as a read-only follower (writes fail until promoted)")
		metricAddr = flag.String("metrics", "", "serve Prometheus-text metrics over HTTP on this address (path /metrics)")
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
	if src == "" {
		fmt.Fprintln(os.Stderr, "ixmanager: provide an expression with -e or -f")
		flag.Usage()
		os.Exit(2)
	}
	e, err := ix.Parse(src)
	if err != nil {
		fatal(err)
	}

	var replicas []string
	if *replicaCSV != "" {
		for _, a := range strings.Split(*replicaCSV, ",") {
			replicas = append(replicas, strings.TrimSpace(a))
		}
	}
	reg := ix.NewMetricsRegistry()
	m, err := ix.NewManager(e, ix.ManagerOptions{
		LogPath:             *logPath,
		SnapshotPath:        *snapPath,
		SnapshotEvery:       *snapK,
		StorageDir:          *storeDir,
		SegmentBytes:        *segBytes,
		FullCheckpointEvery: *deltaK,
		ReservationTimeout:  *timeout,
		BatchMaxSize:        *batchMax,
		SyncWrites:          *syncWrites,
		Replicas:            replicas,
		SyncReplicas:        *syncRepl,
		Follower:            *follower,
		Metrics:             reg,
	})
	if err != nil {
		fatal(err)
	}
	defer m.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := ix.NewServer(m, ln)
	defer srv.Close()

	var detail string
	switch {
	case *storeDir != "":
		detail = fmt.Sprintf(" (storage %s, %d actions recovered)", *storeDir, m.Steps())
	case *logPath != "":
		detail = fmt.Sprintf(" (log %s, %d actions recovered)", *logPath, m.Steps())
	}
	if st := m.Status(); *follower || len(replicas) > 0 {
		detail += fmt.Sprintf(" [%s, epoch %d, %d replicas]", st.Role, st.Epoch, len(replicas))
	}
	fmt.Printf("ixmanager: serving %q on %s%s\n", e, srv.Addr(), detail)

	if *metricAddr != "" {
		mln, err := net.Listen("tcp", *metricAddr)
		if err != nil {
			fatal(err)
		}
		defer mln.Close()
		go serveMetrics(mln, reg)
		fmt.Printf("ixmanager: metrics on http://%s/metrics\n", mln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	st := m.Stats()
	fmt.Printf("ixmanager: shutting down: %d asks, %d grants, %d denies, %d confirms, %d informs\n",
		st.Asks, st.Grants, st.Denies, st.Confirms, st.Informs)
	cs, _ := m.CacheStats()
	fmt.Printf("ixmanager: state cache: %d nodes, %d/%d memo hits/misses, %d evictions\n",
		cs.Nodes, cs.MemoHits, cs.MemoMisses, cs.MemoEvictions)
}

// serveMetrics exposes the registry in Prometheus text format.
func serveMetrics(ln net.Listener, reg *ix.MetricsRegistry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	http.Serve(ln, mux)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ixmanager:", err)
	os.Exit(2)
}
