// Command cfdserve serves CFD violation detection over HTTP: the serving side
// of the paper's workflow, where discovered rules become live data-quality
// checks. The rule set comes from a rule file — either the text format of
// cfddiscover -o or the rules.Set JSON served by GET /v1/rules, sniffed
// automatically — or is discovered on a trusted sample at startup; tuples are
// then bulk loaded from a CSV and kept current through the API, with the
// repro/violation engine maintaining one index per LHS attribute set of the
// rules so every mutation costs O(LHS sets) lookups, not a rescan. The engine
// is safe under concurrent load: reads serve immutable epoch snapshots,
// mutations are serialised and fanned out across index shards.
//
// Usage:
//
//	cfdserve -rules rules.txt -data dirty.csv
//	cfdserve -sample clean.csv -support 10 -addr :8080
//	cfdserve -rules rules.txt -data dirty.csv -state ./state   # durable
//	cfdserve -state ./state                                    # restart
//	cfdserve -coordinator -shards http://a:8081,http://b:8081  # cluster front
//
// API (versioned under /v1; API.md in the repository root is the full wire
// contract — error envelope, pagination, the delta format):
//
//	GET    /v1/health                  engine size, rule count + version,
//	                                   dirty estimate, epoch, WAL backlog,
//	                                   last remine
//	GET    /v1/rules                   the served rule set as rules.Set JSON
//	                                   (rules, tableaux, provenance, schema),
//	                                   with its version as the ETag
//	PUT    /v1/rules                   upload a rule file (text or JSON) and
//	                                   atomically swap the served set —
//	                                   conditionally under If-Match; responds
//	                                   with the added/removed/retained delta
//	POST   /v1/rules/remine            re-mine rules over the live tuples in
//	                                   the background and swap if they changed
//	                                   (?wait=1 runs synchronously)
//	GET    /v1/violations              full snapshot: per-rule tuples + dirty
//	                                   set, stamped with its epoch; ?since=N
//	                                   returns the exact delta since that
//	                                   epoch instead (410 once compacted)
//	GET    /v1/violations/stream       the same deltas live, as SSE — one
//	                                   event per commit
//	GET    /v1/suspects                tuples most likely erroneous (repair
//	                                   view), read off the live indexes by
//	                                   violation.Engine.Suspects
//	GET    /v1/tuples                  bulk export in id order (limit/cursor)
//	POST   /v1/tuples                  insert {"values":[...]} or
//	                                   {"rows":[[...]]} (a rows batch is
//	                                   atomic)
//	POST   /v1/batch                   atomic mixed batch
//	                                   {"ops":[{"op":"insert","values":[...]},
//	                                   {"op":"delete","id":3},{"op":"update",
//	                                   "id":2,"values":[...]}]}
//	GET    /v1/tuples/{id}             one tuple's values
//	GET    /v1/tuples/{id}/violations  rules the tuple violates
//	PUT    /v1/tuples/{id}             replace {"values":[...]}
//	DELETE /v1/tuples/{id}             remove the tuple
//
// Every route has one handler, written against a backend the node (engine
// and store) and the coordinator (shard fleet) both implement, and one
// wire-document definition (repro/cluster's docs.go) both encode — so the two
// modes answer the routes they share identically by construction.
//
// The rule set is live: PUT /v1/rules, POST /v1/rules/remine and the -maintain
// loop (which remines when its staleness policy says the data drifted) swap
// it atomically while traffic proceeds, and on a durable server the swap is
// write-ahead logged, so a restart — graceful or not — always comes back
// under the rule set it last served. -support and -maxlhs double as the
// remine discovery parameters.
//
// With -state <dir> the server is durable: every mutation is appended to a
// JSONL write-ahead log before it is applied, and snapshots are compacted in
// the background every -compact-every ops (plus once at startup and once at
// graceful shutdown). A restarted server replays snapshot + WAL and serves a
// byte-identical /v1/violations report, tuple ids included. -fsync trades
// ingest latency for durability against machine crashes rather than just
// process exits.
//
// With -coordinator the process holds no tuples at all: it fronts the
// -shards fleet of ordinary cfdserve nodes, routing writes by partition key
// (derived from the served rules, or -partition-by), assigning globally
// unique tuple ids, scatter-gathering reads into deterministically merged
// reports, and driving PUT /v1/rules as a two-phase all-or-nothing swap
// across every shard. Reads fail closed with 503 {"code":"unavailable"}
// when a shard is unreachable; GET /v1/health instead degrades, reporting
// per-shard status. See the Coordinator mode section of API.md and the
// Cluster section of ARCHITECTURE.md.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests and compacting a final snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cfd"
	"repro/discovery"
	"repro/discovery/monitor"
	"repro/obs"
	"repro/rules"
)

// config carries the parsed command line.
type config struct {
	addr      string
	rulesPath string
	dataPath  string
	schema    []string
	workers   int

	samplePath string
	support    int
	maxLHS     int

	statePath    string
	fsync        bool
	compactEvery int
	remineLimit  int

	maintain           bool
	maintainDrift      float64
	maintainConfidence float64
	maintainMinSupport int
	maintainEpochs     uint64
	maintainInterval   time.Duration

	coordinator  bool
	shardURLs    []string
	partitionBy  []string
	shardTimeout time.Duration
	initWait     time.Duration

	debugAddr string
	logLevel  string
	logFormat string
	logw      io.Writer // log destination override (tests); nil = stderr
}

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		rules        = flag.String("rules", "", "rule file: cfddiscover -o text or rules.Set JSON (as served by GET /v1/rules)")
		data         = flag.String("data", "", "CSV file to bulk load at startup (header row required)")
		schema       = flag.String("schema", "", "comma-separated attribute names (needed only without -data/-sample)")
		workers      = flag.Int("workers", 0, "worker goroutines for bulk loads, batches and snapshots (0 = one per CPU)")
		sample       = flag.String("sample", "", "trusted CSV sample to discover rules from (alternative to -rules)")
		support      = flag.Int("support", 10, "support threshold used when discovering rules from -sample")
		maxLHS       = flag.Int("maxlhs", 3, "LHS bound used when discovering rules from -sample")
		state        = flag.String("state", "", "state directory for the write-ahead log and snapshots (empty = memory-only)")
		fsync        = flag.Bool("fsync", false, "fsync the write-ahead log on every commit (durable against machine crashes)")
		compactEvery = flag.Int("compact-every", 4096, "background-compact a snapshot every N logged ops (0 = only at startup/shutdown)")
		remineLimit  = flag.Int("remine-limit", 0, "bound every remine run to the first N mined rules, keeping maintenance mining cheap (0 = mine the full cover)")
		maintain     = flag.Bool("maintain", false, "continuously maintain the rule set: track live per-rule support/confidence and remine only when the -maintain-* policy says the data drifted")
		maintDrift   = flag.Float64("maintain-drift", 0.25, "trigger a remine when a rule's live support drifts more than this fraction from its value at adoption (0 disables)")
		maintConf    = flag.Float64("maintain-confidence", 0.95, "trigger a remine when a rule's live confidence falls below this floor (0 disables)")
		maintMinSupp = flag.Int("maintain-min-support", 0, "exempt rules under this many supporting tuples from the drift/confidence clauses (0 = use -support)")
		maintEpochs  = flag.Uint64("maintain-epochs", 0, "trigger a remine after this many mutation epochs regardless of per-rule drift (0 disables)")
		maintEvery   = flag.Duration("maintain-interval", 30*time.Second, "minimum spacing between maintenance-triggered remines")
		coordinator  = flag.Bool("coordinator", false, "serve as a cluster coordinator over the -shards fleet instead of holding tuples locally")
		shards       = flag.String("shards", "", "comma-separated shard base URLs for -coordinator, e.g. http://10.0.0.7:8081,http://10.0.0.8:8081 (shard order is part of the cluster identity)")
		partitionBy  = flag.String("partition-by", "", "comma-separated partition key attributes for -coordinator (default: derived from the served rules)")
		shardTimeout = flag.Duration("shard-timeout", 5*time.Second, "per-request timeout for coordinator-to-shard round trips")
		initWait     = flag.Duration("init-wait", 30*time.Second, "how long the coordinator retries contacting its shards at startup before giving up")
		debugAddr    = flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = disabled)")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat    = flag.String("log-format", "text", "log format: text or json")
	)
	flag.Parse()

	cfg := config{
		addr: *addr, rulesPath: *rules, dataPath: *data, workers: *workers,
		samplePath: *sample, support: *support, maxLHS: *maxLHS,
		statePath: *state, fsync: *fsync, compactEvery: *compactEvery, remineLimit: *remineLimit,
		maintain: *maintain, maintainDrift: *maintDrift, maintainConfidence: *maintConf,
		maintainMinSupport: *maintMinSupp, maintainEpochs: *maintEpochs, maintainInterval: *maintEvery,
		coordinator: *coordinator, shardTimeout: *shardTimeout, initWait: *initWait,
		debugAddr: *debugAddr, logLevel: *logLevel, logFormat: *logFormat,
	}
	if *schema != "" {
		for _, a := range strings.Split(*schema, ",") {
			cfg.schema = append(cfg.schema, strings.TrimSpace(a))
		}
	}
	cfg.shardURLs = splitList(*shards)
	cfg.partitionBy = splitList(*partitionBy)

	// Validate and install the process logger before anything can log:
	// buildServing and the libraries log through slog.Default, the per-request
	// access log through the same handler with the request id attached.
	logger, err := obs.NewLogger(os.Stderr, cfg.logLevel, cfg.logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	if cfg.coordinator {
		if err := runCoordinator(cfg, logger); err != nil {
			fatal(err)
		}
		return
	}

	sv, err := buildServing(cfg)
	if err != nil {
		fatal(err)
	}
	logger.Info("serving state loaded",
		"rules", len(sv.eng.Rules()), "attributes", len(sv.eng.Attributes()), "tuples", sv.eng.Size())
	if sv.store != nil {
		logger.Info("durable state attached",
			"state_dir", sv.store.Dir(), "fsync", cfg.fsync, "compact_every", cfg.compactEvery)
	}

	h := newServer(sv.eng, sv.store, cfg)
	srv := &http.Server{Addr: cfg.addr, Handler: h.handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h.baseCtx = ctx // bounds background remines at shutdown

	// The pprof endpoints live on their own listener, never the serving
	// address: profiling stays reachable when the API is saturated, and the
	// serving port exposes no debug surface.
	if cfg.debugAddr != "" {
		go func() {
			logger.Info("debug listener on", "addr", cfg.debugAddr)
			if err := http.ListenAndServe(cfg.debugAddr, debugMux()); err != nil {
				logger.Error("debug listener failed", "error", err)
			}
		}()
	}

	// The loop runs remines synchronously on its own goroutine, so waiting
	// for loopDone at shutdown covers an in-flight maintenance-triggered
	// remine.
	loopDone := make(chan struct{})
	if cfg.maintain {
		pol := maintainPolicy(cfg)
		mon := monitor.New(sv.eng, pol, h.maintainRemine, monitor.WithObserver(h.obs))
		h.mon = mon
		logger.Info("continuous rule maintenance enabled",
			"drift", pol.MaxSupportDrift, "confidence", pol.MinConfidence,
			"min_support", pol.MinSupport, "epochs", pol.MaxEpochs,
			"interval", pol.MinInterval.String(), "remine_limit", cfg.remineLimit)
		go func() {
			defer close(loopDone)
			mon.Run(ctx)
		}()
	} else {
		close(loopDone)
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", cfg.addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			sv.close()
			fatal(err)
		}
	case <-ctx.Done():
		stop()
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			sv.close()
			fatal(err)
		}
		// In-flight requests, background compactions and remines are
		// drained: fold the WAL into a final snapshot so the next start
		// replays nothing.
		<-loopDone
		h.drainBackground()
		if err := sv.close(); err != nil {
			fatal(err)
		}
	}
}

// splitList splits a comma-separated flag value into trimmed, non-empty
// entries.
func splitList(raw string) []string {
	var out []string
	for _, v := range strings.Split(raw, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// runCoordinator is the -coordinator serving path: no engine, no store — the
// process fronts the -shards fleet, forming the cluster (with startup
// retries while shards boot) and serving the coordinator API until
// SIGINT/SIGTERM. The coordinator is stateless, so shutdown is just draining
// in-flight requests; the shards own all durable state.
func runCoordinator(cfg config, logger *slog.Logger) error {
	if len(cfg.shardURLs) == 0 {
		return errors.New("-coordinator requires -shards")
	}
	if cfg.statePath != "" || cfg.dataPath != "" || cfg.rulesPath != "" || cfg.samplePath != "" {
		return errors.New("-coordinator holds no local state; -state/-data/-rules/-sample belong on the shard nodes")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cs, err := newCoordinator(ctx, cfg)
	if err != nil {
		return err
	}
	logger.Info("cluster formed",
		"shards", cs.cl.Shards(), "partition_key", strings.Join(cs.cl.Key(), ","),
		"schema", len(cs.cl.Schema()), "next_id", cs.cl.NextID())

	if cfg.debugAddr != "" {
		go func() {
			logger.Info("debug listener on", "addr", cfg.debugAddr)
			if err := http.ListenAndServe(cfg.debugAddr, debugMux()); err != nil {
				logger.Error("debug listener failed", "error", err)
			}
		}()
	}

	srv := &http.Server{Addr: cfg.addr, Handler: cs.handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("coordinator listening", "addr", cfg.addr)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		stop()
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return err
		}
	}
	return nil
}

// debugMux serves the net/http/pprof endpoints. An explicit mux, not
// http.DefaultServeMux, so nothing else a dependency registers globally leaks
// onto the debug port.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// maintainPolicy resolves the -maintain-* flags to a monitor.Policy. The
// MinSupport default follows the discovery threshold: a rule the miners
// would not even report at the current -support should not drive remines.
func maintainPolicy(cfg config) monitor.Policy {
	minSupport := cfg.maintainMinSupport
	if minSupport <= 0 {
		minSupport = cfg.support
	}
	return monitor.Policy{
		MaxSupportDrift: cfg.maintainDrift,
		MinConfidence:   cfg.maintainConfidence,
		MinSupport:      minSupport,
		MaxEpochs:       cfg.maintainEpochs,
		MinInterval:     cfg.maintainInterval,
	}
}

// discoverRules mines the serving rule set on the given relation (the
// trusted startup sample, or the live tuples during a remine); the resulting
// set carries the discovery provenance, which GET /v1/rules exposes. A
// cancelled ctx aborts the mining run promptly. progress, when non-nil, is
// the discovery progress hook: called with the cumulative rule count after
// every streamed rule (the remine path counts candidates through it). limit
// bounds the run to the first N mined rules (-remine-limit; 0 = the full
// cover) — the remine paths pass it so maintenance mining stays cheap, while
// startup sample discovery always mines the full cover.
func discoverRules(ctx context.Context, sample *cfd.Relation, cfg config, limit int, progress func(found int)) (*rules.Set, error) {
	options := []discovery.Option{
		discovery.WithSupport(cfg.support),
		discovery.WithMaxLHS(cfg.maxLHS),
		discovery.WithWorkers(cfg.workers),
	}
	if limit > 0 {
		options = append(options, discovery.WithLimit(limit))
	}
	if progress != nil {
		options = append(options, discovery.WithProgress(progress))
	}
	eng := discovery.NewEngine(discovery.AlgFastCFD, sample, options...)
	return eng.Run(ctx)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfdserve:", err)
	os.Exit(1)
}
