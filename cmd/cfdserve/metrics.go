package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"repro/obs"
)

// obsStack bundles the server's observability state: the metrics registry
// behind GET /metrics, the structured logger, and the HTTP-layer series the
// instrument middleware feeds. Engine, WAL and delta series are registered by
// obs.InstrumentEngine/InstrumentStore against the same registry, the Go
// runtime's gauges by obs.InstrumentRuntime.
type obsStack struct {
	reg *obs.Registry
	log *slog.Logger

	reqTotal *obs.CounterVec   // route, method, code (status class: 2xx..5xx)
	reqDur   *obs.HistogramVec // route, method
	inFlight *obs.Gauge
	sse      *obs.Gauge

	remineTotal   *obs.CounterVec // outcome: swapped | unchanged | error
	remineDur     *obs.Histogram
	rulesStreamed *obs.Counter

	reportBytes *obs.CounterVec // source: reused | encoded

	maintainChecks   *obs.Counter    // maintenance-policy evaluations
	maintainTriggers *obs.CounterVec // reason: drift | confidence

	boot *obs.GaugeVec // phase: open | load, set once by a durable node's boot
}

// newObsStack builds the registry and the HTTP/discovery families around the
// mode's logger.
func newObsStack(log *slog.Logger) *obsStack {
	reg := obs.NewRegistry()
	obs.InstrumentRuntime(reg)
	return &obsStack{
		reg:           reg,
		log:           log,
		reqTotal:      reg.CounterVec("cfd_http_requests_total", "HTTP requests served, by route pattern, method and status class.", "route", "method", "code"),
		reqDur:        reg.HistogramVec("cfd_http_request_duration_seconds", "HTTP request duration by route pattern and method.", obs.DefBuckets, "route", "method"),
		inFlight:      reg.Gauge("cfd_http_in_flight_requests", "HTTP requests currently being served."),
		sse:           reg.Gauge("cfd_http_sse_subscribers", "Open /v1/violations/stream SSE connections."),
		remineTotal:   reg.CounterVec("cfd_remine_total", "Remine runs by outcome (swapped, unchanged, error).", "outcome"),
		remineDur:     reg.Histogram("cfd_remine_duration_seconds", "Wall-clock duration of remine runs.", obs.DefBuckets),
		rulesStreamed: reg.Counter("cfd_discovery_rules_streamed_total", "Candidate rules streamed by discovery during remines."),

		reportBytes: reg.CounterVec("cfd_report_encode_bytes_total", "Bytes of the id lists in a node's full violation reports, by source: reused (copied from the previous full report's encoding) or encoded.", "source"),

		maintainChecks:   reg.Counter("cfd_maintain_checks_total", "Rule-maintenance policy evaluations against the live per-rule counters."),
		maintainTriggers: reg.CounterVec("cfd_maintain_triggers_total", "Maintenance-triggered remines by policy reason (drift, confidence).", "reason"),

		boot: reg.GaugeVec("cfd_boot_seconds", "Seconds a durable node's boot spent opening its state directory (open: violation.OpenStore, which reads the snapshot and the log) and rebuilding the engine from them (load: Store.Load).", "phase"),
	}
}

// ObserveCheck and ObserveTrigger make the obs stack the monitor.Observer of
// the -maintain loop, so the monitor package stays metrics-free the same way
// the violation engine does.
func (o *obsStack) ObserveCheck() { o.maintainChecks.Inc() }

func (o *obsStack) ObserveTrigger(reason string) { o.maintainTriggers.With(reason).Inc() }

// statusWriter captures the response status for the access log and metrics.
// It forwards Flush (the SSE handler type-asserts http.Flusher) and exposes
// the wrapped writer via Unwrap for http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// validRequestID bounds what the server echoes back: a client-supplied id is
// reused only when it is short and header/log-safe, anything else is replaced.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// instrument wraps one route handler with the observability middleware: it
// assigns (or adopts) the request id, echoes it as X-Request-Id, carries it in
// the context so every log line and error envelope repeats it, tracks the
// in-flight gauge, and emits the per-route counter, duration histogram and
// access log line when the handler returns. route is the pattern label
// ("/violations", not the concrete path), so the series stay low-cardinality.
// A method on the obs stack so the single-node server and the coordinator
// share one middleware.
func (o *obsStack) instrument(method, route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-Id")
		if !validRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ctx := obs.WithRequestID(r.Context(), id)
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		o.inFlight.Inc()
		defer func() {
			o.inFlight.Dec()
			elapsed := time.Since(start)
			o.reqTotal.With(route, method, fmt.Sprintf("%dxx", sw.status/100)).Inc()
			o.reqDur.With(route, method).Observe(elapsed.Seconds())
			o.log.LogAttrs(ctx, slog.LevelInfo, "request",
				slog.String("method", method),
				slog.String("route", route),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("duration", elapsed),
			)
		}()
		h(sw, r)
	}
}

// coordObs is the coordinator's shard-facing telemetry: the cluster.Observer
// the shard clients call into, backed by the same registry the HTTP families
// live in. All five families carry the shard index (or scatter op / swap
// outcome) as their only label, so cardinality is bounded by the fleet size.
type coordObs struct {
	shardReqTotal *obs.CounterVec   // shard, result (ok | error)
	shardReqDur   *obs.HistogramVec // shard
	shardUp       *obs.GaugeVec     // shard: 1 healthy, 0 breaker open
	scatterErrs   *obs.CounterVec   // op (violations, tuples, swap, ...)
	swapTotal     *obs.CounterVec   // outcome (committed, rejected, aborted, mixed)
}

// newCoordObs registers the coordinator families against the stack's registry.
func newCoordObs(reg *obs.Registry) *coordObs {
	return &coordObs{
		shardReqTotal: reg.CounterVec("cfd_coord_shard_requests_total", "Coordinator-to-shard round trips by shard index and result (ok, error).", "shard", "result"),
		shardReqDur:   reg.HistogramVec("cfd_coord_shard_request_duration_seconds", "Coordinator-to-shard round-trip duration by shard index.", obs.DefBuckets, "shard"),
		shardUp:       reg.GaugeVec("cfd_coord_shard_up", "Per-shard availability as seen by the coordinator's circuit breaker (1 up, 0 down).", "shard"),
		scatterErrs:   reg.CounterVec("cfd_coord_scatter_errors_total", "Scatter-gather operations that failed as a whole, by operation.", "op"),
		swapTotal:     reg.CounterVec("cfd_coord_rule_swaps_total", "Coordinated two-phase rule swaps by outcome (committed, rejected, aborted, mixed).", "outcome"),
	}
}

func (c *coordObs) ObserveShardRequest(shard string, seconds float64, failed bool) {
	result := "ok"
	if failed {
		result = "error"
	}
	c.shardReqTotal.With(shard, result).Inc()
	c.shardReqDur.With(shard).Observe(seconds)
}

func (c *coordObs) ObserveShardHealth(shard string, healthy bool) {
	v := 0.0
	if healthy {
		v = 1
	}
	c.shardUp.With(shard).Set(v)
}

func (c *coordObs) ObserveScatterError(op string) { c.scatterErrs.With(op).Inc() }

func (c *coordObs) ObserveSwap(outcome string) { c.swapTotal.With(outcome).Inc() }
