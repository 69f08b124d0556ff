package obs

import (
	"math"
	"runtime/metrics"

	"repro/violation"
)

// engineCollector implements violation.EngineObserver over registry metrics.
type engineCollector struct {
	commits      *CounterVec   // kind
	commitDur    *HistogramVec // kind
	batchSize    *Histogram
	swaps        *Counter
	swapDur      *Histogram
	swapBuild    *Histogram
	rulesAdded   *Counter
	rulesRemoved *Counter
	snapshots    *CounterVec   // mode
	snapshotDur  *HistogramVec // mode
}

func (c *engineCollector) ObserveCommit(kind string, ops int, seconds float64) {
	c.commits.With(kind).Inc()
	c.commitDur.With(kind).Observe(seconds)
	c.batchSize.Observe(float64(ops))
}

func (c *engineCollector) ObserveSwap(added, removed, retained int, build, seconds float64) {
	c.swaps.Inc()
	c.swapDur.Observe(seconds)
	c.swapBuild.Observe(build)
	c.rulesAdded.Add(uint64(added))
	c.rulesRemoved.Add(uint64(removed))
}

func (c *engineCollector) ObserveSnapshot(patched bool, seconds float64) {
	mode := "rebuild"
	if patched {
		mode = "patch"
	}
	c.snapshots.With(mode).Inc()
	c.snapshotDur.With(mode).Observe(seconds)
}

// InstrumentEngine registers the engine's metric families on r and attaches an
// observer to e that feeds them. Gauges (epoch, tuple/rule counts, delta-ring
// state) are func-backed: they read the engine at scrape time and cost the hot
// path nothing. Call it once per engine, after the initial load; passing a new
// engine for the same registry (a serving layer that reloaded) re-points the
// func-backed gauges if re-registered on a fresh registry — with one shared
// registry, instrument the engine that lives as long as the process.
func InstrumentEngine(r *Registry, e *violation.Engine) {
	c := &engineCollector{
		commits:      r.CounterVec("cfd_engine_commits_total", "Committed engine mutations by op kind (insert, delete, update, batch, bulkload).", "kind"),
		commitDur:    r.HistogramVec("cfd_engine_commit_duration_seconds", "Wall-clock duration of committed engine mutations by op kind.", DefBuckets, "kind"),
		batchSize:    r.Histogram("cfd_engine_batch_size_ops", "Tuple ops carried per committed mutation.", SizeBuckets),
		swaps:        r.Counter("cfd_engine_rule_swaps_total", "Committed SwapRules calls."),
		swapDur:      r.Histogram("cfd_engine_swap_duration_seconds", "Wall-clock duration of committed rule swaps.", DefBuckets),
		swapBuild:    r.Histogram("cfd_engine_swap_build_seconds", "Wall-clock time committed rule swaps spent laying out and building every LHS index of the new rules, and each root they newly refine, over the live tuples (part of cfd_engine_swap_duration_seconds).", DefBuckets),
		rulesAdded:   r.Counter("cfd_engine_rules_added_total", "Rules added across all committed swaps."),
		rulesRemoved: r.Counter("cfd_engine_rules_removed_total", "Rules removed across all committed swaps."),
		snapshots:    r.CounterVec("cfd_engine_snapshots_total", "Snapshot refreshes by mode (patch = a read's incremental delta patch; rebuild = a full build, by a bulk load or restore, or by a read whose last report has left the delta ring).", "mode"),
		snapshotDur:  r.HistogramVec("cfd_engine_snapshot_duration_seconds", "Wall-clock duration of snapshot refreshes by mode.", DefBuckets, "mode"),
	}
	r.GaugeFunc("cfd_engine_epoch", "Current mutation epoch.", func() float64 { return float64(e.Epoch()) })
	r.GaugeFunc("cfd_engine_tuples", "Live tuples in the engine.", func() float64 { return float64(e.Size()) })
	r.GaugeFunc("cfd_engine_rules", "Rules the engine currently serves.", func() float64 { return float64(len(e.Rules())) })
	r.GaugeFunc("cfd_engine_dirty_tuples", "Tuples currently violating at least one rule.", func() float64 { return float64(e.DirtyCount()) })
	r.GaugeFunc("cfd_engine_delta_ring_occupancy", "Consecutive epochs answerable from the delta ring.", func() float64 { return float64(e.DeltaStats().Occupancy) })
	r.GaugeFunc("cfd_engine_delta_ring_capacity", "Delta-ring capacity in epochs (1024).", func() float64 { return float64(e.DeltaStats().Capacity) })
	r.GaugeFunc("cfd_engine_wait_waiters", "WaitChange calls currently blocked (long-poll/SSE fan-out depth).", func() float64 { return float64(e.DeltaStats().Waiters) })
	r.GaugeFuncVec("cfd_engine_index_groups", "Groups of π_X among the tuples the rules over X apply to, by size, summed over the engine's LHS sets X, whatever stores them: the set's own group map or the root it refines (one = a single tuple; run = 2 to 8; large = past 8).", "members",
		[]string{"large", "one", "run"}, func() []float64 {
			var one, run, large int
			for _, st := range e.IndexStats() {
				one, run, large = one+st.One, run+st.Run, large+st.Large
			}
			return []float64{float64(large), float64(one), float64(run)}
		})
	r.CounterFunc("cfd_engine_delta_evictions_total", "Delta-ring entries overwritten while the ring was full.", func() uint64 { return e.DeltaStats().Evictions })
	r.CounterFunc("cfd_engine_delta_compacted_reads_total", "Changes calls answered with ErrCompacted (clients forced to resync).", func() uint64 { return e.DeltaStats().CompactedReads })
	e.SetObserver(c)
}

// storeCollector implements violation.StoreObserver over registry metrics.
type storeCollector struct {
	appends        *CounterVec // result
	appendDur      *Histogram
	fsyncDur       *Histogram
	compactions    *CounterVec // result
	compactionDur  *Histogram
	compactionSize *Histogram
}

func result(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

func (c *storeCollector) ObserveWALAppend(ops int, seconds float64, err error) {
	c.appends.With(result(err)).Inc()
	c.appendDur.Observe(seconds)
}

func (c *storeCollector) ObserveWALFsync(seconds float64) {
	c.fsyncDur.Observe(seconds)
}

func (c *storeCollector) ObserveCompaction(bytes int, seconds float64, err error) {
	c.compactions.With(result(err)).Inc()
	c.compactionDur.Observe(seconds)
	if err == nil {
		c.compactionSize.Observe(float64(bytes))
	}
}

// InstrumentStore registers the persistence layer's metric families on r and
// attaches an observer to st that feeds them. Like InstrumentEngine, the
// pending/seq gauges are func-backed and read the store only at scrape time.
func InstrumentStore(r *Registry, st *violation.Store) {
	c := &storeCollector{
		appends:        r.CounterVec("cfd_wal_appends_total", "WAL append attempts by result.", "result"),
		appendDur:      r.Histogram("cfd_wal_append_duration_seconds", "Wall-clock duration of WAL appends (fsync included when enabled).", DefBuckets),
		fsyncDur:       r.Histogram("cfd_wal_fsync_duration_seconds", "Wall-clock duration of successful WAL fsyncs.", DefBuckets),
		compactions:    r.CounterVec("cfd_store_compactions_total", "Snapshot compactions by result.", "result"),
		compactionDur:  r.Histogram("cfd_store_compaction_duration_seconds", "Wall-clock duration of snapshot compactions.", DefBuckets),
		compactionSize: r.Histogram("cfd_store_compaction_bytes", "Encoded size of written snapshots.", SizeBuckets),
	}
	r.GaugeFunc("cfd_wal_pending_ops", "Ops appended to the WAL since the last compaction.", func() float64 { return float64(st.Pending()) })
	r.GaugeFunc("cfd_wal_seq", "Sequence number of the last committed WAL record.", func() float64 { return float64(st.Seq()) })
	r.GaugeFunc("cfd_store_failed", "1 once a WAL write, fsync or truncate has failed and the store refuses commits, else 0.", func() float64 {
		if st.Failed() != nil {
			return 1
		}
		return 0
	})
	st.SetObserver(c)
}

// runtimeSample reads one runtime/metrics sample.
func runtimeSample(name string) metrics.Value {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	return sample[0].Value
}

// runtimeBytes sums the named byte-valued runtime metrics.
func runtimeBytes(names ...string) float64 {
	var sum uint64
	for _, name := range names {
		sum += runtimeSample(name).Uint64()
	}
	return float64(sum)
}

// InstrumentRuntime registers the Go runtime's own gauges on r: what the
// process holds beyond the tuples the engine gauges count — most of a serving
// node's resident memory — and what collecting it has cost. Like every gauge
// here they are func-backed: runtime/metrics is read when /metrics is scraped,
// there is no ticker, and nothing runs between scrapes.
func InstrumentRuntime(r *Registry) {
	r.GaugeFunc("cfd_go_heap_inuse_bytes", "Heap memory in spans that hold objects: live and not yet swept objects plus the free slots among them.", func() float64 {
		return runtimeBytes("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes")
	})
	r.GaugeFunc("cfd_go_heap_released_bytes", "Heap memory returned to the operating system and not counted in its resident set.", func() float64 {
		return runtimeBytes("/memory/classes/heap/released:bytes")
	})
	r.GaugeFunc("cfd_go_sys_bytes", "All memory the Go runtime has mapped, released memory included.", func() float64 {
		return runtimeBytes("/memory/classes/total:bytes")
	})
	r.GaugeFunc("cfd_go_gc_pause_seconds", "Cumulative stop-the-world garbage collection pause time since the process started, to the resolution of the runtime's pause histogram.", func() float64 {
		h := runtimeSample("/sched/pauses/total/gc:seconds").Float64Histogram()
		var sum float64
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) { // the outermost buckets are open-ended
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			sum += float64(n) * (lo + hi) / 2
		}
		return sum
	})
	r.GaugeFunc("cfd_go_goroutines", "Live goroutines.", func() float64 {
		return float64(runtimeSample("/sched/goroutines:goroutines").Uint64())
	})
}
