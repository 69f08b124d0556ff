// Command cfdserve serves CFD violation detection over HTTP: the serving side
// of the paper's workflow, where discovered rules become live data-quality
// checks. The rule set comes from a rule file — either the text format of
// cfddiscover -o or the rules.Set JSON served by GET /v1/rules, sniffed
// automatically — or is discovered on a trusted sample at startup; tuples are
// then bulk loaded from a CSV and kept current through the API, with the
// repro/violation engine maintaining one index per LHS attribute set of the
// rules so every mutation costs O(LHS sets) lookups, not a rescan.
//
// Usage:
//
//	cfdserve -rules rules.txt -data dirty.csv
//	cfdserve -sample clean.csv -support 10 -addr :8080
//	cfdserve -rules rules.txt -data dirty.csv -state ./state   # durable
//	cfdserve -state ./state                                    # restart
//	cfdserve -coordinator -shards http://a:8081,http://b:8081  # cluster front
//
// cfdserve -h lists the flags (flagTable below is their one declaration;
// README.md's table explains them). A flag the chosen mode never reads, or
// one that cannot take effect, is refused with exit status 2. API.md in the
// repository root is the wire contract of the /v1 routes, and
// ARCHITECTURE.md describes durability (-state), rule maintenance
// (-maintain) and the coordinator.
//
// The server stops on SIGINT/SIGTERM: it stops accepting, drains in-flight
// requests, waits for background work and, on a durable node, compacts a
// final snapshot before closing the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
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

// config is the parsed command line plus the serving constants.
type config struct {
	addr      string
	rulesPath string
	dataPath  string
	schema    []string

	samplePath string
	support    int
	maxLHS     int

	statePath string
	fsync     bool
	maintain  bool

	coordinator bool
	shardURLs   []string
	partitionBy []string

	debugAddr string
	logLevel  string
	logFormat string

	// Not on the command line: run always uses the values in defaults, the
	// ones every harness number was measured under. They are fields only so a
	// test can force a compaction or shorten a wait.
	compactEvery int           // background-compact every N logged ops (0 = only at startup/shutdown)
	shardTimeout time.Duration // per-request coordinator-to-shard timeout
	initWait     time.Duration // how long the coordinator retries its shards at startup

	log *slog.Logger // built by parseFlags; nil (a config built by a test) = slog.Default
}

func defaults() config {
	return config{
		addr: ":8080", support: 10, maxLHS: 3, logLevel: "info", logFormat: "text",
		compactEvery: 4096, shardTimeout: 5 * time.Second, initWait: 30 * time.Second,
	}
}

func (c config) logger() *slog.Logger {
	if c.log != nil {
		return c.log
	}
	return slog.Default()
}

// shutdownGrace bounds the drain of in-flight requests at shutdown.
const shutdownGrace = 5 * time.Second

// readHeaderTimeout bounds how long a connection may take to send a request's
// headers, on the API and the debug listener alike: a client that never
// finishes them is cut off instead of holding a connection and a goroutine.
const readHeaderTimeout = 10 * time.Second

// newHTTPServer returns the server of either listener, answering handler.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout}
}

// maintainPolicy is the -maintain staleness policy: remine when a rule's live
// support has drifted a quarter from its value at adoption or its confidence
// has fallen under 0.95, at most every 30 s. Rules below the discovery
// threshold are exempt — a rule the miners would not report at the current
// -support should not drive remines. A remine on a timer instead is
// POST /v1/rules/remine from cron.
func maintainPolicy(support int) monitor.Policy {
	return monitor.Policy{MaxSupportDrift: 0.25, MinConfidence: 0.95, MinSupport: support, MinInterval: 30 * time.Second}
}

// mode says which serving mode reads a flag.
type mode string

const (
	node  mode = "node"
	coord mode = "coordinator"
	both  mode = "both"
)

// flagTable is the command line, declared once: bindFlags binds each row
// straight into its config field (the default is the field's value in
// defaults), parseFlags refuses a row set under the wrong mode, and README.md
// lists the same rows in the same order (TestFlagTableMatchesREADME).
var flagTable = []struct {
	name  string
	mode  mode
	field func(*config) any // *string, *int, *bool, or *[]string for a comma-separated list
	usage string
}{
	{"addr", both, func(c *config) any { return &c.addr }, "listen address"},
	{"rules", node, func(c *config) any { return &c.rulesPath }, "rule file: cfddiscover -o text or rules.Set JSON (as served by GET /v1/rules)"},
	{"data", node, func(c *config) any { return &c.dataPath }, "CSV file to bulk load at startup (header row required)"},
	{"schema", node, func(c *config) any { return &c.schema }, "comma-separated attribute names (needed only without -data/-sample)"},
	{"sample", node, func(c *config) any { return &c.samplePath }, "trusted CSV sample to discover rules from (alternative to -rules)"},
	{"support", node, func(c *config) any { return &c.support }, "support threshold for discovering rules, from -sample and on every remine"},
	{"maxlhs", node, func(c *config) any { return &c.maxLHS }, "LHS bound for discovering rules, from -sample and on every remine"},
	{"state", node, func(c *config) any { return &c.statePath }, "state directory for the write-ahead log and snapshots (empty = memory-only)"},
	{"fsync", node, func(c *config) any { return &c.fsync }, "fsync the write-ahead log on every commit: an acknowledged write survives a power cut, not only a process kill (needs -state)"},
	{"maintain", node, func(c *config) any { return &c.maintain }, "continuously maintain the rule set: track live per-rule support/confidence and remine when the data drifted"},
	{"coordinator", both, func(c *config) any { return &c.coordinator }, "serve as a cluster coordinator over the -shards fleet instead of holding tuples locally"},
	{"shards", coord, func(c *config) any { return &c.shardURLs }, "comma-separated shard base URLs, e.g. http://10.0.0.7:8081,http://10.0.0.8:8081 (shard order is part of the cluster identity)"},
	{"partition-by", coord, func(c *config) any { return &c.partitionBy }, "comma-separated partition key attributes (default: derived from the served rules)"},
	{"debug-addr", both, func(c *config) any { return &c.debugAddr }, "separate listen address for net/http/pprof profiling endpoints (empty = disabled)"},
	{"log-level", both, func(c *config) any { return &c.logLevel }, "log level: debug, info, warn or error"},
	{"log-format", both, func(c *config) any { return &c.logFormat }, "log format: text or json"},
}

func bindFlags(fs *flag.FlagSet, cfg *config) {
	for _, f := range flagTable {
		switch p := f.field(cfg).(type) {
		case *string:
			fs.StringVar(p, f.name, *p, f.usage)
		case *int:
			fs.IntVar(p, f.name, *p, f.usage)
		case *bool:
			fs.BoolVar(p, f.name, *p, f.usage)
		case *[]string:
			fs.Var((*listFlag)(p), f.name, f.usage)
		}
	}
}

// listFlag is a comma-separated flag value: trimmed, empty entries dropped.
type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }

func (l *listFlag) Set(raw string) error {
	*l = nil
	for _, v := range strings.Split(raw, ",") {
		if v = strings.TrimSpace(v); v != "" {
			*l = append(*l, v)
		}
	}
	return nil
}

// usageError is a command line run refuses: exit status 2, like a flag the
// flag package rejects.
type usageError struct{ error }

// parseFlags parses args into a config and builds its logger over logw.
// Beyond what the flag package rejects, a flag set for the wrong mode, or one
// that cannot take effect, is refused by name. -h prints the usage to logw and
// returns flag.ErrHelp.
func parseFlags(args []string, logw io.Writer) (config, error) {
	cfg := defaults()
	fs := flag.NewFlagSet("cfdserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // the caller reports the error, once
	bindFlags(fs, &cfg)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(logw)
			fmt.Fprint(logw, "Usage:\n  cfdserve (-rules file | -sample csv) [-data csv] [-state dir] [flags]\n  cfdserve -state dir [flags]\n  cfdserve -coordinator -shards url,url,... [flags]\nFlags:\n")
			fs.PrintDefaults()
			return cfg, err
		}
		return cfg, usageError{err}
	}
	if err := checkFlags(fs, cfg); err != nil {
		return cfg, usageError{err}
	}
	log, err := obs.NewLogger(logw, cfg.logLevel, cfg.logFormat)
	if err != nil {
		return cfg, usageError{err}
	}
	cfg.log = log
	return cfg, nil
}

// checkFlags refuses, by name, a flag the user set that the selected mode
// never reads or that cannot take effect.
func checkFlags(fs *flag.FlagSet, cfg config) error {
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, row := range flagTable {
		switch {
		case !set[row.name]:
		case cfg.coordinator && row.mode == node:
			return fmt.Errorf("-%s has no effect with -coordinator", row.name)
		case !cfg.coordinator && row.mode == coord:
			return fmt.Errorf("-%s has no effect without -coordinator", row.name)
		}
	}
	switch {
	case cfg.fsync && cfg.statePath == "":
		return errors.New("-fsync has no effect without -state")
	case cfg.coordinator && len(cfg.shardURLs) == 0:
		return errors.New("-coordinator requires -shards")
	}
	return nil
}

func main() {
	os.Exit(exitCode(run(context.Background(), os.Args[1:], os.Stderr), os.Stderr))
}

// exitCode reports run's error on w and maps it to the process status: 2 for
// a refused command line, 1 for anything else.
func exitCode(err error, w io.Writer) int {
	if err == nil {
		return 0
	}
	fmt.Fprintln(w, "cfdserve:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// run is the whole program: it parses args, boots the mode they select,
// serves it until ctx ends or SIGINT/SIGTERM arrives, and cleans up. All
// output — the usage, every log line — goes to logw.
func run(ctx context.Context, args []string, logw io.Writer) error {
	cfg, err := parseFlags(args, logw)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The coordinator is stateless — the shards own all durable state — so
	// serve's drain is all of its shutdown.
	if cfg.coordinator {
		cs, err := newCoordinator(ctx, cfg)
		if err != nil {
			return err
		}
		return serve(ctx, cfg.log, cfg.addr, cfg.debugAddr, cs.handler(), shutdownGrace)
	}
	s, err := bootNode(ctx, cfg)
	if err != nil {
		return err
	}
	return s.serve(ctx, cfg.addr, cfg.debugAddr, shutdownGrace)
}

// serve answers handler on addr, and net/http/pprof on debugAddr when set,
// until ctx ends; it then stops accepting and gives in-flight requests grace
// to drain. It returns nil after a clean drain, the listen or serve error
// otherwise; after a drain that timed out the remaining connections are
// severed, so their handlers see their request context end.
func serve(ctx context.Context, log *slog.Logger, addr, debugAddr string, handler http.Handler, grace time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := newHTTPServer(handler)
	failed := make(chan error, 1)
	go func() { failed <- srv.Serve(ln) }()
	defer srv.Close()
	log.Info("listening", "addr", ln.Addr().String())

	// The pprof endpoints live on their own listener, never the serving
	// address: profiling stays reachable when the API is saturated, and the
	// serving port exposes no debug surface.
	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return err
		}
		debug := newHTTPServer(debugMux())
		go debug.Serve(dln)
		defer debug.Close()
		log.Info("debug listener on", "addr", dln.Addr().String())
	}

	select {
	case err := <-failed:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down")
	drain, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		return fmt.Errorf("draining in-flight requests: %w", err)
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

// discoverRules mines the serving rule set on the given relation (the
// trusted startup sample, or the live tuples during a remine); the resulting
// set carries the discovery provenance, which GET /v1/rules exposes. A
// cancelled ctx aborts the mining run promptly. progress, when non-nil, is
// the discovery progress hook: called with the cumulative rule count after
// every streamed rule (the remine path counts candidates through it).
func discoverRules(ctx context.Context, sample *cfd.Relation, cfg config, progress func(found int)) (*rules.Set, error) {
	options := []discovery.Option{
		discovery.WithSupport(cfg.support),
		discovery.WithMaxLHS(cfg.maxLHS),
	}
	if progress != nil {
		options = append(options, discovery.WithProgress(progress))
	}
	return discovery.NewEngine(discovery.AlgFastCFD, sample, options...).Run(ctx)
}
