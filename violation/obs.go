package violation

import (
	"sync/atomic"
)

// EngineObserver is the engine's instrumentation hook: a serving layer (see
// repro/obs) attaches one with Engine.SetObserver and receives an event per
// committed mutation, rule swap and snapshot refresh. Every callback runs
// synchronously on the mutating (or snapshot-building) goroutine, so
// implementations must be cheap and non-blocking — counter bumps and histogram
// observations, not I/O. Every event site reads the clock and reports whether
// or not an observer is attached: with none, the events go to a no-op
// observer, so an unobserved engine pays one atomic load and two clock reads
// per event and allocates nothing for them.
//
// State that does not need an event — epoch, live tuples, rule count, delta
// ring occupancy (DeltaStats) — is intentionally not pushed: poll the engine's
// accessors at scrape time instead.
type EngineObserver interface {
	// ObserveCommit reports one committed tuple mutation: kind is the op kind
	// for a single-op commit ("insert", "delete", "update"), "batch" for a
	// multi-op ApplyBatch and "bulkload" for BulkLoad; ops is the number of
	// tuple ops the commit carried and seconds its wall-clock duration
	// (validation, WAL append and index maintenance included).
	ObserveCommit(kind string, ops int, seconds float64)
	// ObserveSwap reports one committed SwapRules: the rule-delta shape, the
	// wall-clock seconds the swap spent laying out and building the new
	// rules' indexes and fresh roots over the live tuples (build), and the
	// swap's wall-clock duration (seconds, the build included).
	ObserveSwap(added, removed, retained int, build, seconds float64)
	// ObserveSnapshot reports one snapshot refresh: patched is true for a
	// read's O(changes) delta patch, false for a full build — the one a bulk
	// change (BulkLoad, restore) publishes, or the one a read makes when its
	// last report has left the delta history.
	ObserveSnapshot(patched bool, seconds float64)
}

// StoreObserver is the persistence layer's instrumentation hook, attached with
// Store.SetObserver. Like EngineObserver, callbacks run synchronously on the
// committing goroutine and must be cheap; with no observer attached the store
// times its events all the same and reports them to a no-op observer.
type StoreObserver interface {
	// ObserveWALAppend reports one commit attempt on the write-ahead log: the
	// record's op weight (see walRecord cost: tuple ops, or 1 for a rule swap),
	// its duration (fsync included) and whether it failed.
	ObserveWALAppend(ops int, seconds float64, err error)
	// ObserveWALFsync reports one successful WAL fsync (only emitted when the
	// store runs with StoreOptions.Sync).
	ObserveWALFsync(seconds float64)
	// ObserveCompaction reports one snapshot compaction: the snapshot's encoded
	// size in bytes (0 when the failure preceded encoding), its duration and
	// whether it failed.
	ObserveCompaction(bytes int, seconds float64, err error)
}

// engineObsBox wraps the observer for atomic.Value (which cannot hold a bare
// nil interface).
type engineObsBox struct{ o EngineObserver }
type storeObsBox struct{ o StoreObserver }

// noObserver receives the events of an engine or store no observer is
// attached to, and drops them.
type noObserver struct{}

func (noObserver) ObserveCommit(string, int, float64)          {}
func (noObserver) ObserveSwap(int, int, int, float64, float64) {}
func (noObserver) ObserveSnapshot(bool, float64)               {}
func (noObserver) ObserveWALAppend(int, float64, error)        {}
func (noObserver) ObserveWALFsync(float64)                     {}
func (noObserver) ObserveCompaction(int, float64, error)       {}

// SetObserver attaches the engine's instrumentation hook; nil detaches it,
// and the events go to a no-op observer again. Attach it after any initial
// BulkLoad or Store.Load so restore work is not double-counted as live
// traffic. Safe for concurrent use, though it is meant to be called once at
// startup.
func (e *Engine) SetObserver(o EngineObserver) { e.obsV.Store(engineObsBox{o}) }

// obs returns the attached observer, or the no-op one when none is: one
// atomic load, and every event site reports to what it returns.
func (e *Engine) obs() EngineObserver {
	if b, _ := e.obsV.Load().(engineObsBox); b.o != nil {
		return b.o
	}
	return noObserver{}
}

// SetObserver attaches the store's instrumentation hook; nil detaches it to
// the no-op observer. Safe for concurrent use.
func (st *Store) SetObserver(o StoreObserver) { st.obsV.Store(storeObsBox{o}) }

// obs is Engine.obs for the store.
func (st *Store) obs() StoreObserver {
	if b, _ := st.obsV.Load().(storeObsBox); b.o != nil {
		return b.o
	}
	return noObserver{}
}

// DeltaStats describes the state of the bounded delta ring behind Changes and
// the pressure on it — the numbers a health endpoint or metrics scrape needs
// to tell whether delta clients are keeping up.
type DeltaStats struct {
	// Occupancy is the number of consecutive epochs currently answerable from
	// the ring; Capacity is its length, 1024.
	Occupancy int
	Capacity  int
	// Evictions counts ring entries overwritten while the ring was full: each
	// one moved the oldest answerable epoch forward. A rate here under steady
	// polling means slow clients are being pushed towards ErrCompacted.
	Evictions uint64
	// CompactedReads counts Changes calls answered with ErrCompacted — clients
	// that actually fell off the history and were forced to resync.
	CompactedReads uint64
	// Waiters is the number of WaitChange calls currently blocked (the
	// long-poll/SSE fan-out depth).
	Waiters int
}

// DeltaStats returns the current delta-ring statistics.
func (e *Engine) DeltaStats() DeltaStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return DeltaStats{
		Occupancy:      e.deltaN,
		Capacity:       len(e.deltas),
		Evictions:      e.deltaEvictions.Load(),
		CompactedReads: e.deltaCompacted.Load(),
		Waiters:        int(e.waiters.Load()),
	}
}

// obsCounters groups the engine's internal event counters (exposed through
// DeltaStats; maintained with atomics so read paths never upgrade their lock).
type obsCounters struct {
	deltaEvictions atomic.Uint64
	deltaCompacted atomic.Uint64
	waiters        atomic.Int64
}
