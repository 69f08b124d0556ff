package violation

import (
	"sync/atomic"
)

// EngineObserver is the engine's instrumentation hook: a serving layer (see
// repro/obs) attaches one with Engine.SetObserver and receives an event per
// committed mutation, rule swap and snapshot refresh. Every callback runs
// synchronously on the mutating (or snapshot-building) goroutine, so
// implementations must be cheap and non-blocking — counter bumps and histogram
// observations, not I/O. With no observer attached the engine pays a single
// atomic load per event site and takes no timestamps at all.
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
	// ObserveSwap reports one committed SwapRules: the rule-delta shape and the
	// swap's wall-clock duration (index builds for added rules included).
	ObserveSwap(added, removed, retained int, seconds float64)
	// ObserveSnapshot reports one snapshot refresh: patched is true for a
	// read's O(changes) delta patch, false for a full build — the one a bulk
	// change (BulkLoad, restore) publishes, or the one a read makes when its
	// last report has left the delta history.
	ObserveSnapshot(patched bool, seconds float64)
}

// StoreObserver is the persistence layer's instrumentation hook, attached with
// Store.SetObserver. Like EngineObserver, callbacks run synchronously on the
// committing goroutine and must be cheap; with no observer attached the store
// pays one atomic load per event site.
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

// SetObserver attaches (or, with nil, detaches) the engine's instrumentation
// hook. Attach it after any initial BulkLoad or Store.Load so restore work is
// not double-counted as live traffic. Safe for concurrent use, though it is
// meant to be called once at startup.
func (e *Engine) SetObserver(o EngineObserver) { e.obsV.Store(engineObsBox{o}) }

// obs returns the attached observer, or nil. One atomic load; callers on the
// hot path must check for nil before taking timestamps.
func (e *Engine) obs() EngineObserver {
	b, _ := e.obsV.Load().(engineObsBox)
	return b.o
}

// SetObserver attaches (or, with nil, detaches) the store's instrumentation
// hook. Safe for concurrent use.
func (st *Store) SetObserver(o StoreObserver) { st.obsV.Store(storeObsBox{o}) }

func (st *Store) obs() StoreObserver {
	b, _ := st.obsV.Load().(storeObsBox)
	return b.o
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
