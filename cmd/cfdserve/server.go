package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/cfd"
	"repro/cluster"
	"repro/dataset"
	"repro/discovery/monitor"
	"repro/obs"
	"repro/rules"
	"repro/violation"
)

// server is the node mode of cfdserve: the backend the shared /v1 handlers
// (api.go) serve the violation engine through, plus the node-only routes. The
// engine itself is safe for concurrent use — reads serve immutable epoch
// snapshots, mutations (tuple ops and live rule swaps alike) are serialised
// and write-ahead logged internally — so nothing here holds a lock across an
// engine call; the server only adds the persistence glue (compaction
// scheduling against the attached Store) and the rule lifecycle (uploads,
// remining).
type server struct {
	serving                      // the engine and its optional store
	cfg          config          // compaction cadence + remine discovery knobs
	baseCtx      context.Context // bounds background remines and open streams; bootNode's is cancelled at shutdown
	stop         context.CancelFunc
	loopDone     <-chan struct{} // closed once the -maintain loop has returned; nil without one
	obs          *obsStack       // metrics registry + structured logger
	compacting   atomic.Bool
	remining     atomic.Bool // CAS guard: at most one remine at a time
	bg           sync.WaitGroup
	started      time.Time
	mon          *monitor.Monitor // -maintain loop; nil unless enabled
	lastRemineMu sync.Mutex
	lastRemine   *cluster.RemineDoc

	lastCompactMu  sync.Mutex
	lastCompactErr string // last background-compaction failure; "" once one succeeds

	// The last full report writeReport encoded, and the spare it encodes the
	// next one into.
	reportMu      sync.Mutex
	report, spare cluster.ReportEncoding
}

func newServer(eng *violation.Engine, store *violation.Store, cfg config) *server {
	st := newObsStack(cfg.logger())
	obs.InstrumentEngine(st.reg, eng)
	if store != nil {
		obs.InstrumentStore(st.reg, store)
	}
	return &server{serving: serving{eng: eng, store: store}, cfg: cfg, baseCtx: context.Background(), obs: st, started: time.Now()}
}

// bootNode is the node mode's startup: it builds the serving state the
// command line names, wraps it in a server and, with -maintain, starts the
// maintenance loop. Everything it starts runs under a child of ctx that
// shutdown cancels.
func bootNode(ctx context.Context, cfg config) (*server, error) {
	sv, err := buildServing(ctx, cfg)
	if err != nil {
		return nil, err
	}
	log := cfg.logger()
	log.Info("serving state loaded",
		"rules", len(sv.eng.Rules()), "attributes", len(sv.eng.Attributes()), "tuples", sv.eng.Size())
	s := newServer(sv.eng, sv.store, cfg)
	if sv.store != nil {
		log.Info("durable state attached", "state_dir", sv.store.Dir(), "fsync", cfg.fsync,
			"open_seconds", sv.open.Seconds(), "load_seconds", sv.load.Seconds())
		s.obs.boot.With("open").Set(sv.open.Seconds())
		s.obs.boot.With("load").Set(sv.load.Seconds())
	}
	s.baseCtx, s.stop = context.WithCancel(ctx)
	if cfg.maintain {
		pol := maintainPolicy(cfg.support)
		log.Info("continuous rule maintenance enabled",
			"drift", pol.MaxSupportDrift, "confidence", pol.MinConfidence,
			"min_support", pol.MinSupport, "interval", pol.MinInterval.String())
		s.loopDone = s.maintain(s.baseCtx, pol)
	}
	return s, nil
}

// maintain starts the -maintain loop under pol and returns the channel it
// closes on return. The loop runs remines synchronously on its own goroutine,
// so waiting for the channel covers an in-flight maintenance-triggered remine.
func (s *server) maintain(ctx context.Context, pol monitor.Policy) <-chan struct{} {
	s.mon = monitor.New(s.eng, pol, s.maintainRemine, monitor.WithObserver(s.obs))
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mon.Run(ctx)
	}()
	return done
}

// serve serves a booted node until ctx ends, then shuts it down — also when
// the listener failed or the drain timed out, so no path closes the store
// under running work or leaves it open.
func (s *server) serve(ctx context.Context, addr, debugAddr string, grace time.Duration) error {
	return errors.Join(serve(ctx, s.obs.log, addr, debugAddr, s.handler(), grace), s.shutdown())
}

// shutdown undoes bootNode once the HTTP server has stopped, in the one safe
// order: cancel what runs in the background, wait for the maintenance loop
// and for background compactions and remines, and only then fold the WAL
// into a final snapshot — so the next start replays nothing — and close the
// store.
func (s *server) shutdown() error {
	s.stop()
	if s.loopDone != nil {
		<-s.loopDone
	}
	s.drainBackground()
	return s.close()
}

// routes is the node's API surface: the shared /v1 routes served from this
// server as their backend, plus the two that exist on a node only — the
// delta stream (each node commits on its own WAL, so a fleet has no one
// epoch to stream from) and the remine (mining is a per-node operation).
func (s *server) routes() []route {
	return append(api{s}.routes(),
		route{"GET", "/violations/stream", s.stream},
		route{"POST", "/rules/remine", s.remine},
	)
}

func (s *server) handler() http.Handler { return s.obs.mux(s.routes()) }

// maybeCompact starts a background snapshot compaction when enough WAL ops
// have accumulated. At most one compaction runs at a time; Store.Compact
// captures its consistent view under a read lock — one scan of an attribute
// column over every id slot and a copy of the live tuples' codes — so writers
// stall only for that capture, not for the encoding or the file write.
func (s *server) maybeCompact() {
	if s.store == nil || s.cfg.compactEvery <= 0 || s.store.Pending() < s.cfg.compactEvery {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		defer s.compacting.Store(false)
		err := s.store.Compact(s.eng)
		s.lastCompactMu.Lock()
		if err != nil {
			s.lastCompactErr = err.Error()
		} else {
			s.lastCompactErr = ""
		}
		s.lastCompactMu.Unlock()
		if err != nil {
			s.obs.log.Error("background compaction failed", "error", err)
		} else {
			s.obs.log.Debug("background compaction done", "wal_pending", s.store.Pending())
		}
	}()
}

// drainBackground waits for in-flight background work — compactions and
// remine runs.
func (s *server) drainBackground() { s.bg.Wait() }

func toRuleStats(stats []violation.RuleStat) []cluster.RuleStatDoc {
	out := make([]cluster.RuleStatDoc, len(stats))
	for i, st := range stats {
		out[i] = cluster.RuleStatDoc{
			Rule:       st.Rule.String(),
			Support:    st.Support,
			Groups:     st.Groups,
			Violating:  st.Violating,
			Confidence: st.Confidence,
		}
	}
	return out
}

func toIndexStats(stats []violation.IndexStat) []cluster.IndexStatDoc {
	out := make([]cluster.IndexStatDoc, len(stats))
	for i, st := range stats {
		out[i] = cluster.IndexStatDoc{LHS: st.LHS, Root: st.Root, Tuples: st.Tuples, One: st.One, Run: st.Run, Large: st.Large}
	}
	return out
}

func ruleStrings(cfds []cfd.CFD) []string {
	out := make([]string, len(cfds))
	for i, c := range cfds {
		out[i] = c.String()
	}
	return out
}

func toRuleTuples(vs []violation.Violation) []cluster.RuleTuples {
	out := make([]cluster.RuleTuples, 0, len(vs))
	for _, v := range vs {
		out = append(out, cluster.RuleTuples{Rule: v.Rule.String(), Tuples: v.Tuples})
	}
	return out
}

func intsOrEmpty(v []int) []int {
	if v == nil {
		return []int{}
	}
	return v
}

func newDeltaDoc(d *violation.Delta) cluster.DeltaDoc {
	doc := cluster.DeltaDoc{
		Epoch:        d.Epoch,
		Added:        toRuleTuples(d.Added),
		Removed:      toRuleTuples(d.Removed),
		DirtyAdded:   intsOrEmpty(d.DirtyAdded),
		DirtyRemoved: intsOrEmpty(d.DirtyRemoved),
	}
	if d.Rules != nil {
		doc.Rules = ruleStrings(d.Rules)
	}
	return doc
}

// The backend methods: the node's answers to the shared /v1 handlers, read
// straight off the engine. None of them needs the request context — engine
// calls do not block on anything a client could abandon — except the rule
// swap, whose index build it cancels.

func (s *server) Health(context.Context) any {
	ds := s.eng.DeltaStats()
	doc := cluster.HealthDoc{
		Status:       "ok",
		Tuples:       s.eng.Size(),
		Rules:        len(s.eng.Rules()),
		Dirty:        s.eng.DirtyCount(),
		Epoch:        s.eng.Epoch(),
		Uptime:       time.Since(s.started).Round(time.Millisecond).String(),
		RulesVersion: s.eng.RulesVersion(),
		// The id the next insert gets — a cluster coordinator recovers its
		// global id counter as the max across its shards.
		NextID: s.eng.NextID(),
		// In-flight state, not just last-completed results: both booleans flip
		// while the background work runs.
		Compacting:    s.compacting.Load(),
		RemineRunning: s.remining.Load(),
		DeltaRing: cluster.DeltaRingDoc{
			Occupancy:      ds.Occupancy,
			Capacity:       ds.Capacity,
			Evictions:      ds.Evictions,
			CompactedReads: ds.CompactedReads,
			Waiters:        ds.Waiters,
		},
		// The live per-rule counters: what continuous maintenance watches, and
		// what an operator reads to judge how far the data has drifted from the
		// served rules without waiting for a remine.
		RuleStats: toRuleStats(s.eng.RuleStats()),
		// How each LHS set holds its groups: the counts that tell an operator
		// what the indexes cost and which sets read through a root.
		Indexes: toIndexStats(s.eng.IndexStats()),
	}
	if s.store != nil {
		pending := s.store.Pending()
		doc.StateDir, doc.WALPending = s.store.Dir(), &pending
		s.lastCompactMu.Lock()
		doc.LastCompactionError = s.lastCompactErr
		s.lastCompactMu.Unlock()
		if err := s.store.Failed(); err != nil {
			doc.Status, doc.StoreFailed = "failed", err.Error()
		}
	}
	if s.mon != nil {
		doc.Maintain = s.mon.Status()
	}
	s.lastRemineMu.Lock()
	doc.LastRemine = s.lastRemine
	s.lastRemineMu.Unlock()
	return doc
}

func (s *server) Rules(_ context.Context, held func(version string) bool) (cluster.RulesDoc, error) {
	// The 304 polling fast path costs only the cached digest, no set copy.
	if v := s.eng.RulesVersion(); held(v) {
		return cluster.RulesDoc{Version: v}, nil
	}
	// One read serves the version, the body and the stats, so they cannot
	// disagree even if a swap lands during the request.
	set, stats := s.eng.RuleSetStats()
	ruleset, err := set.MarshalJSON()
	if err != nil {
		return cluster.RulesDoc{}, err
	}
	return cluster.RulesDoc{
		Attributes: s.eng.Attributes(),
		Ruleset:    ruleset,
		Stats:      toRuleStats(stats),
		Version:    set.Fingerprint(),
	}, nil
}

// SwapRules swaps the served set and answers with the delta. The swap is
// write-ahead logged on a durable server, so a crash right after the 200
// still restarts under the new rules.
func (s *server) SwapRules(ctx context.Context, set *rules.Set, _ []byte, ifMatch []string) (cluster.SwapDoc, error) {
	delta, err := s.eng.SwapRulesIf(ctx, set, ifMatch)
	if err != nil {
		return cluster.SwapDoc{}, err
	}
	s.maybeCompact()
	return cluster.SwapDoc{
		Swapped: !delta.Unchanged(),
		Version: delta.New,
		Rules:   set.Len(),
		Delta: &cluster.SwapDeltaDoc{
			Summary:  delta.String(),
			Added:    ruleStrings(delta.Added),
			Removed:  ruleStrings(delta.Removed),
			Retained: len(delta.Retained),
		},
	}, nil
}

// Violations is the full report from one immutable epoch snapshot.
func (s *server) Violations(context.Context) (cluster.ViolationsDoc, error) {
	rep := s.eng.Report()
	return cluster.ViolationsDoc{
		Epoch:        &rep.Epoch,
		Violations:   toRuleTuples(rep.Violations),
		Dirty:        rep.DirtyTuples,
		RulesChecked: rep.RulesChecked,
	}, nil
}

// writeReport sends the whole report as writeJSON would, re-encoding only
// what changed since the previous one: ids are assigned in ascending order, so
// between two full reads most id lists are unchanged or grew at the end, and
// their bytes are copied from the previous encoding. The reply is written
// from the encoding itself, under the lock; a full read that finds it held
// encodes the plain way rather than wait.
func (s *server) writeReport(w http.ResponseWriter, doc cluster.ViolationsDoc) {
	if !s.reportMu.TryLock() {
		writeJSON(w, http.StatusOK, doc)
		return
	}
	defer s.reportMu.Unlock()
	s.spare.Encode(doc, &s.report)
	s.report, s.spare = s.spare, s.report
	s.obs.reportBytes.With("reused").Add(uint64(s.report.Reused))
	s.obs.reportBytes.With("encoded").Add(uint64(s.report.Encoded))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(s.report.JSON)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.report.JSON) // a failed write means nobody is reading
}

func (s *server) Changes(_ context.Context, since uint64) (cluster.ChangesDoc, error) {
	d, err := s.eng.Changes(since)
	if err != nil {
		return cluster.ChangesDoc{}, err
	}
	return cluster.ChangesDoc{Epoch: d.Epoch, Delta: newDeltaDoc(d)}, nil
}

// Suspects is read off the live indexes under the engine's read lock.
func (s *server) Suspects(context.Context) ([]int, error) { return s.eng.Suspects(), nil }

func (s *server) Tuples(_ context.Context, cursor, limit int) (cluster.TuplesDoc, error) {
	tuples, next, more := s.eng.Tuples(cursor, limit)
	doc := cluster.TuplesDoc{Tuples: make([]cluster.TupleDoc, len(tuples)), Total: s.eng.Size()}
	for i, t := range tuples {
		doc.Tuples[i] = cluster.TupleDoc{ID: t.ID, Values: t.Values}
	}
	if more {
		doc.NextCursor = strconv.Itoa(next)
	}
	return doc, nil
}

// apply commits ops as one atomic engine batch — either every op is applied
// (and write-ahead logged as one record) or none is — then schedules a
// compaction when due and reads the post-commit counts write replies carry.
func (s *server) apply(ops []violation.Op) (cluster.WriteDoc, error) {
	ids, err := s.eng.ApplyBatch(ops)
	if err != nil {
		return cluster.WriteDoc{}, err
	}
	s.maybeCompact()
	tuples, dirty := s.eng.Size(), s.eng.DirtyCount()
	return cluster.WriteDoc{IDs: ids, Tuples: &tuples, Dirty: &dirty}, nil
}

func (s *server) Insert(_ context.Context, rows [][]string) (cluster.WriteDoc, error) {
	ops := make([]violation.Op, len(rows))
	for i, row := range rows {
		ops[i] = violation.Op{Kind: violation.OpInsert, Values: row}
	}
	return s.apply(ops)
}

func (s *server) Batch(_ context.Context, ops []violation.Op) (cluster.WriteDoc, error) {
	doc, err := s.apply(ops)
	doc.Applied = len(ops)
	return doc, err
}

func (s *server) Get(_ context.Context, id int) (cluster.TupleDoc, error) {
	row, err := s.eng.Row(id)
	return cluster.TupleDoc{ID: id, Values: row}, err
}

func (s *server) TupleViolations(_ context.Context, id int) (cluster.TupleViolationsDoc, error) {
	violated, err := s.eng.TupleViolations(id)
	return cluster.TupleViolationsDoc{ID: id, Violated: ruleStrings(violated)}, err
}

// remine re-runs rule discovery over the live relation and swaps the result
// in — in the background by default (202, poll /v1/health for last_remine),
// or synchronously with ?wait=1 (200 with the result); a wait that is not a
// boolean is 400, refused before the guard. A CAS guard, like the
// compaction one, keeps at most one remine running; a concurrent request
// gets 409. The swap is skipped when the mined fingerprint matches the
// serving one, so a remine over unchanged data is a no-op.
func (s *server) remine(w http.ResponseWriter, r *http.Request) {
	var wait bool
	if v := r.URL.Query().Get("wait"); v != "" {
		var err error
		if wait, err = strconv.ParseBool(v); err != nil {
			badRequest(w, r, fmt.Errorf("wait %q is not a boolean", v))
			return
		}
	}
	if !s.remining.CompareAndSwap(false, true) {
		writeError(w, r, http.StatusConflict, cluster.CodeConflict, errors.New("a remine is already running"))
		return
	}
	if wait {
		// Synchronous: cancelled when the client goes away.
		writeJSON(w, http.StatusOK, s.remineOnce(r.Context()))
		return
	}
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		// Background: cancelled at shutdown, so draining never waits out a
		// long mining run.
		s.remineOnce(s.baseCtx)
	}()
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "remine started"})
}

// remineOnce runs one remine (the CAS flag must be held), records the result
// for /v1/health and releases the flag.
func (s *server) remineOnce(ctx context.Context) cluster.RemineDoc {
	defer s.remining.Store(false)
	start := time.Now()
	res := s.runRemine(ctx)
	res.Outcome = "unchanged"
	switch {
	case res.Error != "":
		res.Outcome = "error"
	case res.Swapped:
		res.Outcome = "swapped"
	}
	s.obs.remineTotal.With(res.Outcome).Inc()
	s.obs.remineDur.ObserveSince(start)
	s.lastRemineMu.Lock()
	s.lastRemine = &res
	s.lastRemineMu.Unlock()
	return res
}

func (s *server) runRemine(ctx context.Context) (res cluster.RemineDoc) {
	start := time.Now()
	res = cluster.RemineDoc{At: start}
	defer func() { res.Elapsed = time.Since(start).Round(time.Millisecond).String() }()
	rel, _, err := s.eng.Relation()
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Tuples = rel.Size()
	if rel.Size() == 0 {
		// Mining nothing would swap in the empty rule set and silently stop
		// checking anything; refuse instead.
		res.Error = "no live tuples to mine rules from"
		return res
	}
	lastFound := 0
	set, err := discoverRules(ctx, rel, s.cfg, func(found int) {
		// The hook reports the cumulative count; convert it to increments so
		// the counter keeps rising monotonically across remine runs. The
		// non-atomic lastFound is safe because WithProgress guarantees serial
		// invocation regardless of the worker count (see discovery.Engine).
		if found > lastFound {
			s.obs.rulesStreamed.Add(uint64(found - lastFound))
			lastFound = found
		}
	})
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Version = set.Fingerprint()
	if res.Version == s.eng.RulesVersion() {
		return res // same rules: keep the serving set (and its indexes)
	}
	delta, err := s.eng.SwapRules(ctx, set)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	s.maybeCompact()
	res.Swapped = true
	res.Delta = delta.String()
	s.obs.log.Info("remine swapped rules", "tuples", rel.Size(), "delta", delta.String(), "version", res.Version)
	return res
}

// maintainRemine is the monitor's remine callback: one remine through the same CAS guard, result recording and metrics as a manual
// POST /v1/rules/remine. A run already in flight (a concurrent manual one) is
// an error, so the monitor keeps the trigger armed and retries after its
// pacing interval.
func (s *server) maintainRemine(ctx context.Context, tr monitor.Trigger) error {
	if !s.remining.CompareAndSwap(false, true) {
		return errors.New("a remine is already running")
	}
	s.obs.log.Info("maintenance remine triggered",
		"reason", tr.Reason, "rule", tr.Rule, "detail", tr.Detail, "epoch", tr.Epoch)
	res := s.remineOnce(ctx)
	if res.Error != "" {
		return errors.New(res.Error)
	}
	return nil
}

// stream serves violation deltas as server-sent events: an initial "epoch"
// event naming the stream position, then one "delta" event per change (the
// event id is the delta's epoch, so Last-Event-ID style resume maps onto
// ?since=). A client that connects with a ?since= epoch already outside the
// delta history gets a terminal "compacted" event and must resync with a
// full read. The stream ends when the client disconnects or the server shuts
// down.
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, cluster.CodeInternal, errors.New("streaming is unsupported by this connection"))
		return
	}
	cur := s.eng.Epoch()
	since, resume, err := sinceParam(r.URL.Query())
	if err != nil {
		badRequest(w, r, err)
		return
	}
	if resume {
		cur = since
	}
	// The request context ends when the client goes away; fold in the server
	// shutdown context so graceful shutdown does not wait out open streams.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()

	s.obs.sse.Inc()
	defer s.obs.sse.Dec()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: epoch\ndata: {\"epoch\":%d}\n\n", cur)
	fl.Flush()
	for {
		if _, err := s.eng.WaitChange(ctx, cur); err != nil {
			return // client disconnected or server shutting down
		}
		d, err := s.eng.Changes(cur)
		if err != nil {
			// The client fell behind the delta history: tell it to resync.
			fmt.Fprintf(w, "event: %[1]s\ndata: {\"error\":{\"code\":%[1]q,\"message\":%[2]q}}\n\n", cluster.CodeCompacted, err.Error())
			fl.Flush()
			return
		}
		cur = d.Epoch
		payload, err := json.Marshal(newDeltaDoc(d))
		if err != nil {
			return
		}
		fmt.Fprintf(w, "id: %d\nevent: delta\ndata: %s\n\n", d.Epoch, payload)
		fl.Flush()
	}
}

// serving bundles what bootNode (and the tests) boot: the engine plus its
// optional persistence.
type serving struct {
	eng   *violation.Engine
	store *violation.Store
	// open and load are how long the boot's OpenStore and Store.Load took;
	// zero without a store.
	open, load time.Duration
}

// close compacts a final snapshot (so the next start replays no WAL) and
// closes the store. Memory-only servings close trivially.
func (sv serving) close() error {
	if sv.store == nil {
		return nil
	}
	if err := sv.store.Compact(sv.eng); err != nil {
		sv.store.Close()
		return err
	}
	return sv.store.Close()
}

// buildServing assembles the serving state from the command-line
// configuration. With -state it prefers the state directory: when the
// directory already holds a snapshot, the engine — rules, tuples, ids — is
// rebuilt from it (WAL replayed) and -rules/-data/-sample are ignored;
// otherwise the engine is built as in a memory-only run, a first snapshot is
// compacted, and from then on every mutation is write-ahead logged.
func buildServing(ctx context.Context, cfg config) (*serving, error) {
	if cfg.statePath == "" {
		eng, err := loadEngine(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &serving{eng: eng}, nil
	}
	start := time.Now()
	store, err := violation.OpenStore(cfg.statePath, violation.StoreOptions{Sync: cfg.fsync})
	if err != nil {
		return nil, err
	}
	opened := time.Now()
	eng, restored, err := store.Load(violation.Options{})
	if err != nil {
		store.Close()
		return nil, err
	}
	sv := &serving{store: store, open: opened.Sub(start), load: time.Since(opened)}
	if restored {
		if cfg.rulesPath != "" || cfg.dataPath != "" || cfg.samplePath != "" {
			cfg.logger().Warn("state directory has a snapshot; ignoring -rules/-data/-sample", "state_dir", cfg.statePath)
		}
	} else {
		eng, err = loadEngine(ctx, cfg)
		if err != nil {
			store.Close()
			return nil, err
		}
		// The initial bulk load is captured by a snapshot, not the WAL.
		if err := store.Compact(eng); err != nil {
			store.Close()
			return nil, err
		}
	}
	eng.AttachWAL(store)
	sv.eng = eng
	return sv, nil
}

// loadEngine builds the serving engine from the command-line configuration:
// a rule set from a rule file (text or JSON, sniffed by rules.Load) or
// discovered on a trusted sample, the schema from -data, -schema or the
// sample, and an optional initial bulk load of -data. A cancelled ctx aborts
// the sample discovery.
func loadEngine(ctx context.Context, cfg config) (*violation.Engine, error) {
	var set *rules.Set
	var sampleRel *cfd.Relation
	if cfg.samplePath != "" {
		var err error
		sampleRel, err = loadCSV(cfg.samplePath)
		if err != nil {
			return nil, err
		}
	}
	switch {
	case cfg.rulesPath != "":
		var err error
		set, err = rules.Load(cfg.rulesPath)
		if err != nil {
			return nil, err
		}
	case sampleRel != nil:
		var err error
		set, err = discoverRules(ctx, sampleRel, cfg, nil)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("either -rules or -sample is required")
	}

	var initial *cfd.Relation
	if cfg.dataPath != "" {
		var err error
		initial, err = loadCSV(cfg.dataPath)
		if err != nil {
			return nil, err
		}
	}
	attrs := cfg.schema
	switch {
	case len(attrs) > 0:
	case initial != nil:
		attrs = initial.Attributes()
	case sampleRel != nil:
		attrs = sampleRel.Attributes()
	default:
		return nil, fmt.Errorf("the schema is unknown: pass -data, -sample or -schema")
	}
	eng, err := violation.New(attrs, set, violation.Options{})
	if err != nil {
		return nil, err
	}
	if initial != nil {
		if err := eng.BulkLoad(initial); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

func loadCSV(path string) (*cfd.Relation, error) {
	return dataset.LoadCSVFile(path)
}
