// Command lbserve runs the online load balancing engine as an HTTP daemon:
// an always-on Algorithm 1 over a mutable topology, with event injection,
// snapshots and streaming metrics served against the live engine.
//
// Usage:
//
//	lbserve -addr :8080 -graph torus:32 [-tokens 8] [-maxspeed 1]
//	        [-workers 0] [-window 4096] [-rate 50] [-seed 1] [-audit]
//	        [-wal-dir DIR] [-snapshot-every 1024] [-wal-sync interval]
//	        [-wal-sync-interval 100ms] [-wal-segment 67108864] [-wal-retain 2]
//	        [-ingest-rate 0] [-ingest-burst 8192] [-ingest-pulse constant]
//	        [-ingest-floor 0.1] [-ingest-period 10s]
//	        [-stream-batch 512] [-stream-maxline 65536] [-stream-pending 16384]
//	        [-trace 1024] [-pprof] [-log-format text|json]
//
// Endpoints:
//
//	GET  /healthz                liveness + current round
//	GET  /snapshot[?loads=1]     point-in-time summary of the runtime
//	GET  /metrics[?n=K]          the last K streaming metrics samples
//	GET  /metrics/prom           Prometheus text exposition: per-stage step
//	                             timing histograms, ingest counters, and the
//	                             Theorem 3 discrepancy gauges
//	GET  /debug/trace[?n=K]      flight recorder dump (JSONL): the last
//	                             -trace applied events + round summaries
//	GET  /debug/pprof/...        net/http/pprof profiles (with -pprof)
//	POST /events                 inject an event, e.g.
//	                             {"kind":"arrival","node":3,"tokens":500}
//	                             {"kind":"join","peers":[0,17]}
//	                             {"kind":"leave","node":9}
//	POST /events/stream[?step=S] NDJSON stream of events, one per line,
//	                             applied in batches with backpressure
//	POST /step[?rounds=N]        execute N balancing rounds
//
// With -rate R the daemon steps the engine R times per second on its own;
// with -rate 0 rounds only advance through POST /step. When the event
// queue is empty and the engine reports zero woken edges, the auto-step
// loop idles — no lock-and-scan per tick, and the round counter holds —
// until the next event wakes it; the idle/resume transitions are logged
// once each. With -audit the engine runs the full conservation recount
// after every applied event (deep audit) instead of the default O(1)
// incremental ledger check. Rounds run over the hot frontier only (see
// the README's "Activity gating" section).
//
// Durability: with -wal-dir the daemon appends every applied event and
// round boundary to a write-ahead log and writes a full-state snapshot
// every -snapshot-every rounds. On boot, a directory that already holds a
// log is recovered — newest valid snapshot loaded, committed log tail
// replayed, torn tail truncated — and the daemon refuses to start on a
// CRC or conservation-ledger mismatch anywhere before the durable tail
// (the -graph/-tokens/-maxspeed flags are ignored on recovery; the log
// carries the state). -wal-sync picks the fsync policy: always (fsync at
// every round marker), interval (at most once per -wal-sync-interval, the
// default), never (leave flushing to the OS). A graceful shutdown writes
// a final snapshot so the next boot replays nothing.
//
// Streaming ingest: -stream-batch/-stream-maxline/-stream-pending bound
// the per-request batch size, line length, and the queue depth at which
// the stream applies backpressure. With -ingest-rate R admission into
// the stream is paced through a token bucket of R events/s, optionally
// shaped by -ingest-pulse (sine|square|sawtooth with -ingest-floor as
// the trough fraction over an -ingest-period cycle) to rehearse diurnal
// or bursty admission profiles.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// get a drain window, the auto-step loop stops, and the engine's worker
// pool is released.
//
// Logs are structured (log/slog) on stderr; -log-format json emits one
// JSON object per line for log shippers, text is the human default.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lbserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		graphSpec = flag.String("graph", "torus:32", "initial graph specification")
		tokens    = flag.Int64("tokens", 0, "initial tokens per node, placed uniformly at random")
		maxSpeed  = flag.Int64("maxspeed", 1, "random speeds in {1..maxspeed}")
		seed      = flag.Int64("seed", 1, "random seed for speeds and initial placement")
		workers   = flag.Int("workers", 0, "sharding workers for the hot path (0 = GOMAXPROCS)")
		window    = flag.Int("window", 4096, "metrics ring capacity")
		sample    = flag.Int("sample", 1, "take a metrics sample every N rounds")
		rate      = flag.Float64("rate", 0, "rounds per second to step automatically (0 = manual /step)")
		audit     = flag.Bool("audit", false, "deep audit: full conservation recount after every applied event")

		walDir       = flag.String("wal-dir", "", "write-ahead log directory (empty = no durability); an existing log is recovered on boot")
		snapEvery    = flag.Int("snapshot-every", 1024, "write a full-state snapshot every N rounds")
		walSync      = flag.String("wal-sync", "interval", "WAL fsync policy (interval|always|never)")
		walSyncEvery = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync period for -wal-sync interval")
		walSegment   = flag.Int64("wal-segment", 64<<20, "WAL segment rotation size in bytes")
		walRetain    = flag.Int("wal-retain", 2, "snapshots to retain (older snapshots and covered segments are pruned)")

		ingestRate   = flag.Float64("ingest-rate", 0, "stream admission rate in events/s at the pulse crest (0 = unlimited)")
		ingestBurst  = flag.Int("ingest-burst", 8192, "stream admission burst capacity in events")
		ingestPulse  = flag.String("ingest-pulse", "constant", "admission pulse shape (constant|sine|square|sawtooth)")
		ingestFloor  = flag.Float64("ingest-floor", 0.1, "admission pulse trough as a fraction of the crest rate")
		ingestPeriod = flag.Duration("ingest-period", 10*time.Second, "admission pulse cycle length")

		streamBatch   = flag.Int("stream-batch", 0, "events applied per stream batch (0 = default)")
		streamMaxline = flag.Int("stream-maxline", 0, "max NDJSON line length in bytes (0 = default)")
		streamPending = flag.Int("stream-pending", 0, "queue depth that triggers stream backpressure (0 = default)")

		traceWindow = flag.Int("trace", 1024, "flight recorder capacity (recent events + round summaries, GET /debug/trace)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		logFormat   = flag.String("log-format", "text", "log output format (text|json)")
	)
	flag.Parse()

	if *addr == "" {
		return fmt.Errorf("lbserve: -addr must not be empty")
	}
	if err := cli.ValidateNonNegative("tokens", *tokens); err != nil {
		return err
	}
	if err := cli.ValidatePositive("maxspeed", *maxSpeed); err != nil {
		return err
	}
	if err := cli.ValidateNonNegative("workers", int64(*workers)); err != nil {
		return err
	}
	if err := cli.ValidatePositive("window", int64(*window)); err != nil {
		return err
	}
	if err := cli.ValidatePositive("sample", int64(*sample)); err != nil {
		return err
	}
	if err := cli.ValidateNonNegativeFloat("rate", *rate); err != nil {
		return err
	}
	if err := cli.ValidatePositive("snapshot-every", int64(*snapEvery)); err != nil {
		return err
	}
	if err := cli.ValidateChoice("wal-sync", *walSync, wal.SyncPolicyNames()); err != nil {
		return err
	}
	if err := cli.ValidatePositiveDuration("wal-sync-interval", *walSyncEvery); err != nil {
		return err
	}
	if err := cli.ValidatePositive("wal-segment", *walSegment); err != nil {
		return err
	}
	if err := cli.ValidatePositive("wal-retain", int64(*walRetain)); err != nil {
		return err
	}
	if err := cli.ValidateNonNegativeFloat("ingest-rate", *ingestRate); err != nil {
		return err
	}
	if err := cli.ValidatePositive("ingest-burst", int64(*ingestBurst)); err != nil {
		return err
	}
	if err := cli.ValidateChoice("ingest-pulse", *ingestPulse, workload.PulseNames()); err != nil {
		return err
	}
	if err := cli.ValidatePositiveDuration("ingest-period", *ingestPeriod); err != nil {
		return err
	}
	if err := cli.ValidateNonNegative("stream-batch", int64(*streamBatch)); err != nil {
		return err
	}
	if err := cli.ValidateNonNegative("stream-maxline", int64(*streamMaxline)); err != nil {
		return err
	}
	if err := cli.ValidateNonNegative("stream-pending", int64(*streamPending)); err != nil {
		return err
	}
	if err := cli.ValidatePositive("trace", int64(*traceWindow)); err != nil {
		return err
	}
	if err := cli.ValidateChoice("log-format", *logFormat, cli.LogFormats()); err != nil {
		return err
	}
	logger := cli.NewLogger(*logFormat, os.Stderr)

	// One registry for everything (engine, ingest, WAL, recovery gauges) so
	// a single /metrics/prom scrape sees the whole daemon.
	reg := obs.NewRegistry()
	var (
		walWriter *wal.Writer
		recovery  *wal.Recovery
		err       error
	)
	if *walDir != "" {
		policy, perr := wal.ParseSyncPolicy(*walSync)
		if perr != nil {
			return perr
		}
		walWriter, recovery, err = wal.Open(wal.Options{
			Dir:             *walDir,
			SegmentBytes:    *walSegment,
			Sync:            policy,
			SyncEvery:       *walSyncEvery,
			RetainSnapshots: *walRetain,
			Registry:        reg,
		})
		if err != nil {
			// Corruption before the durable tail (or an unreadable chain):
			// refuse to start rather than serve a state the log disagrees
			// with. The error names the file and byte offset.
			return fmt.Errorf("wal recovery refused: %w", err)
		}
		defer walWriter.Close()
		if recovery.Corruption != nil {
			logger.Warn("lbserve: wal tail truncated to durable prefix",
				"detail", recovery.Corruption.String(), "truncated_bytes", recovery.TruncatedBytes)
		}
	}

	cfg := engine.Config{
		Workers:       *workers,
		MetricsWindow: *window,
		SampleEvery:   *sample,
		DeepAudit:     *audit,
		FlightWindow:  *traceWindow,
		Registry:      reg,
		SnapshotEvery: *snapEvery,
	}
	if walWriter != nil {
		cfg.WAL = walWriter
	}

	var eng *engine.Engine
	if recovery != nil && recovery.HasState() {
		t0 := time.Now()
		eng, err = engine.Restore(recovery, cfg)
		if err != nil {
			// A CRC-valid log that replays to a different state than its
			// markers claim means the build and the log disagree — refuse.
			return fmt.Errorf("wal recovery refused: %w", err)
		}
		elapsed := time.Since(t0)
		reg.Gauge("lbserve_recovery_snapshot_round", "Round of the snapshot recovery started from.").SetInt(recovery.SnapshotRound)
		reg.Gauge("lbserve_recovery_batches_replayed", "Committed log batches replayed on boot.").SetInt(int64(len(recovery.Batches)))
		reg.Gauge("lbserve_recovery_tail_events_discarded", "Uncommitted trailing event records discarded on boot.").SetInt(int64(recovery.TailEvents))
		reg.Gauge("lbserve_recovery_truncated_bytes", "Log tail bytes truncated to the durable prefix on boot.").SetInt(recovery.TruncatedBytes)
		reg.Gauge("lbserve_recovery_seconds", "Wall time of snapshot load + log replay on boot.").Set(elapsed.Seconds())
		logger.Info("lbserve: recovered from write-ahead log",
			"wal_dir", *walDir, "snapshot_round", recovery.SnapshotRound,
			"batches_replayed", len(recovery.Batches), "round", eng.Round(),
			"real_total", eng.RealTotal(), "tail_events_discarded", recovery.TailEvents,
			"elapsed", elapsed.Round(time.Millisecond).String())
	} else {
		g, gerr := cli.ParseGraph(*graphSpec, *seed)
		if gerr != nil {
			return gerr
		}
		rng := rand.New(rand.NewSource(*seed))
		var s load.Speeds
		if *maxSpeed <= 1 {
			s = load.UniformSpeeds(g.N())
		} else {
			s, err = workload.RandomSpeeds(g.N(), *maxSpeed, rng)
			if err != nil {
				return err
			}
		}
		var tasks load.TaskDist
		if *tokens > 0 {
			tasks, err = load.NewTokens(workload.UniformRandom(g.N(), *tokens*int64(g.N()), rng))
			if err != nil {
				return err
			}
		}
		cfg.Graph, cfg.Speeds, cfg.Tasks = g, s, tasks
		eng, err = engine.New(cfg)
		if err != nil {
			return err
		}
	}
	// Read before the auto-step goroutine and listener start: after that,
	// the engine is only safe to touch through the server mutex.
	initialW := eng.RealTotal()
	nodes, edges := eng.NumNodes(), eng.NumEdges()
	sv := engine.NewServer(eng).WithStreamLimits(engine.StreamLimits{
		MaxLineBytes: *streamMaxline,
		MaxBatch:     *streamBatch,
		MaxPending:   *streamPending,
	})
	if *ingestRate > 0 {
		pulse, err := workload.ParsePulse(*ingestPulse, *ingestFloor)
		if err != nil {
			return err
		}
		bucket, err := workload.NewTokenBucket(*ingestRate, *ingestBurst, pulse, *ingestPeriod)
		if err != nil {
			return err
		}
		sv = sv.WithIngestLimiter(bucket)
	}
	// Close under the server mutex: if Shutdown abandoned a slow /step
	// handler at its deadline, the handler still drives the engine between
	// lock windows — closing through Do serializes with it, and its next
	// chunk fails cleanly with ErrClosed instead of racing a closed pool.
	defer func() {
		_ = sv.Do(func(e *engine.Engine) error {
			if walWriter != nil {
				// A final snapshot makes the shutdown point durable so the
				// next boot replays nothing. SnapshotNow refuses if the
				// engine latched an inconsistency — a poisoned state must
				// not become the recovery baseline.
				if err := e.SnapshotNow(); err != nil {
					logger.Warn("lbserve: final snapshot failed", "err", err)
				}
			}
			e.Close()
			return nil
		})
	}()

	// Shutdown order (LIFO): cancel the context, wait for the auto-step
	// loop to exit, then close the engine's worker pool.
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *rate > 0 {
		interval := time.Duration(float64(time.Second) / *rate)
		if interval <= 0 {
			// A rate above 1e9 rounds/s truncates to zero, which
			// time.NewTicker rejects; tick as fast as the runtime allows.
			interval = time.Nanosecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			wasIdle := false
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					// Idle skip: with nothing queued and no edge woken for the
					// next round, Step would be a no-op scan — don't burn it.
					// The check itself runs under the server mutex (the queue
					// and gate state are only safe to read there), but it is
					// two O(|hot|) counter reads, not a round. The round
					// counter deliberately does not advance while idle.
					idle, round := false, int64(0)
					err := sv.Do(func(e *engine.Engine) error {
						if e.PendingEvents() == 0 && e.PendingHotEdges() == 0 {
							idle, round = true, e.Round()
							return nil
						}
						return e.Step()
					})
					if idle != wasIdle {
						// Log the transition once, not per tick.
						if idle {
							logger.Info("lbserve: auto-step idle", "round", round)
						} else {
							logger.Info("lbserve: auto-step resumed")
						}
						wasIdle = idle
					}
					if idle {
						continue
					}
					switch {
					case err == nil:
					case errors.Is(err, engine.ErrInconsistent), errors.Is(err, engine.ErrWAL), errors.Is(err, engine.ErrClosed):
						// A corrupt (or closed) engine must not be stepped
						// further; stop auto-stepping but keep serving
						// snapshots and metrics for the postmortem. The
						// engine latches the ErrInconsistent, and this loop
						// exits on it, so the latched error is logged
						// exactly once — later /step attempts surface it
						// over HTTP, not in the log.
						logger.Error("lbserve: auto-step halted", "err", err)
						return
					default:
						// Invalid injected events are rejected atomically at
						// apply time; log and keep balancing.
						logger.Warn("lbserve: step rejected event", "err", err)
					}
				}
			}
		}()
	}

	handler := http.Handler(sv.Handler())
	if *pprofOn {
		// The flight recorder keeps /debug/trace; pprof gets the standard
		// /debug/pprof/ prefix on an outer mux so the engine routes stay
		// untouched.
		root := http.NewServeMux()
		root.Handle("/", handler)
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = root
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	logger.Info("lbserve: listening",
		"addr", *addr, "graph", *graphSpec, "nodes", nodes, "edges", edges,
		"real_total", initialW, "seed", *seed, "rate", *rate, "audit", *audit,
		"workers", *workers, "window", *window, "sample", *sample,
		"ingest_rate", *ingestRate, "trace", *traceWindow, "pprof", *pprofOn,
		"wal_dir", *walDir)
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		logger.Info("lbserve: signal received, shutting down",
			"addr", *addr, "seed", *seed, "drain_timeout", "10s")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(sctx)
	}
}
