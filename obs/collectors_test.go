package obs_test

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/cfd"
	"repro/dataset"
	"repro/obs"
	"repro/rules"
	"repro/violation"
)

// scrape renders the registry and parses every sample line into a
// series → value map, keyed exactly as exposed ("name" or "name{labels}").
func scrape(t *testing.T, r *obs.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m
}

func val(t *testing.T, m map[string]float64, series string) float64 {
	t.Helper()
	v, ok := m[series]
	if !ok {
		t.Fatalf("series %q not exposed", series)
	}
	return v
}

var custRule = cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"}

// TestInstrumentEngineAndStore drives the full durable write path — bulk load,
// batch, single ops, rule swap, compaction — and asserts every instrumented
// series moves: commit counters and latency histograms by kind, WAL
// append/fsync, compaction duration/bytes, snapshot refreshes, delta-ring
// evictions and forced resyncs, and the func-backed gauges.
func TestInstrumentEngineAndStore(t *testing.T) {
	rel := dataset.Cust()
	eng, err := violation.New(rel.Attributes(), rules.Of(custRule), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := violation.OpenStore(t.TempDir(), violation.StoreOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng.AttachWAL(store)

	r := obs.NewRegistry()
	obs.InstrumentEngine(r, eng)
	obs.InstrumentStore(r, store)

	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	eng.Dirty() // reads the report the bulk load published

	ops := []violation.Op{
		{Kind: violation.OpInsert, Values: []string{"01", "212", "5555555", "Ann", "5th Ave", "NYC", "01202"}},
		{Kind: violation.OpDelete, ID: 7},
	}
	if _, err := eng.ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("01", "212", "6666666", "Bea", "5th Ave", "NYC", "01202"); err != nil {
		t.Fatal(err)
	}
	eng.Dirty() // snapshot again, now via the incremental patch path

	rule2 := cfd.CFD{LHS: []string{"ZIP"}, RHS: "CT", LHSPattern: []string{"_"}, RHSPattern: "_"}
	if _, err := eng.SwapRules(context.Background(), rules.Of(custRule, rule2)); err != nil {
		t.Fatal(err)
	}
	if err := store.Compact(eng); err != nil {
		t.Fatal(err)
	}

	m := scrape(t, r)

	// Engine commit metrics by kind.
	if got := val(t, m, `cfd_engine_commits_total{kind="bulkload"}`); got != 1 {
		t.Errorf("bulkload commits = %v, want 1", got)
	}
	if got := val(t, m, `cfd_engine_commits_total{kind="batch"}`); got != 1 {
		t.Errorf("batch commits = %v, want 1", got)
	}
	if got := val(t, m, `cfd_engine_commits_total{kind="insert"}`); got != 1 {
		t.Errorf("insert commits = %v, want 1", got)
	}
	if got := val(t, m, `cfd_engine_commit_duration_seconds_count{kind="batch"}`); got != 1 {
		t.Errorf("batch commit duration count = %v, want 1", got)
	}
	if got := val(t, m, "cfd_engine_batch_size_ops_count"); got != 3 {
		t.Errorf("batch size observations = %v, want 3", got)
	}
	// The bulk load carried all 8 tuples: the size histogram's sum sees them.
	if got := val(t, m, "cfd_engine_batch_size_ops_sum"); got < 8 {
		t.Errorf("batch size sum = %v, want >= 8", got)
	}

	// Rule swap metrics.
	if got := val(t, m, "cfd_engine_rule_swaps_total"); got != 1 {
		t.Errorf("rule swaps = %v, want 1", got)
	}
	if got := val(t, m, "cfd_engine_rules_added_total"); got != 1 {
		t.Errorf("rules added = %v, want 1", got)
	}
	if got := val(t, m, "cfd_engine_rules_removed_total"); got != 0 {
		t.Errorf("rules removed = %v, want 0", got)
	}
	if got := val(t, m, "cfd_engine_swap_duration_seconds_count"); got != 1 {
		t.Errorf("swap duration count = %v, want 1", got)
	}
	// The index build is part of the swap.
	if got := val(t, m, "cfd_engine_swap_build_seconds_count"); got != 1 {
		t.Errorf("swap build count = %v, want 1", got)
	}
	if build, swap := val(t, m, "cfd_engine_swap_build_seconds_sum"), val(t, m, "cfd_engine_swap_duration_seconds_sum"); build <= 0 || build > swap {
		t.Errorf("swap build seconds = %v of a %v s swap, want in (0, %v]", build, swap, swap)
	}

	// Snapshot refreshes: at least the explicit rebuild and patch reads above.
	snapTotal := m[`cfd_engine_snapshots_total{mode="rebuild"}`] + m[`cfd_engine_snapshots_total{mode="patch"}`]
	if snapTotal < 2 {
		t.Errorf("snapshot refreshes = %v, want >= 2", snapTotal)
	}

	// WAL + compaction metrics: every commit above was logged, fsync on.
	if got := val(t, m, `cfd_wal_appends_total{result="ok"}`); got != 3 {
		t.Errorf("WAL appends = %v, want 3", got)
	}
	if got := val(t, m, "cfd_wal_fsync_duration_seconds_count"); got < 3 {
		t.Errorf("WAL fsyncs = %v, want >= 3", got)
	}
	if got := val(t, m, `cfd_store_compactions_total{result="ok"}`); got != 1 {
		t.Errorf("compactions = %v, want 1", got)
	}
	if got := val(t, m, "cfd_store_compaction_bytes_count"); got != 1 {
		t.Errorf("compaction size observations = %v, want 1", got)
	}

	// Func-backed gauges read live engine/store state at scrape time.
	if got := val(t, m, "cfd_engine_tuples"); got != float64(eng.Size()) {
		t.Errorf("tuples gauge = %v, want %d", got, eng.Size())
	}
	if got := val(t, m, "cfd_engine_rules"); got != 2 {
		t.Errorf("rules gauge = %v, want 2", got)
	}
	if got := val(t, m, "cfd_engine_epoch"); got != float64(eng.Epoch()) {
		t.Errorf("epoch gauge = %v, want %d", got, eng.Epoch())
	}
	if got := val(t, m, "cfd_wal_seq"); got < 3 {
		t.Errorf("wal seq gauge = %v, want >= 3", got)
	}
	if _, ok := m["cfd_wal_pending_ops"]; !ok {
		t.Error("cfd_wal_pending_ops not exposed")
	}
	if _, ok := m["cfd_engine_dirty_tuples"]; !ok {
		t.Error("cfd_engine_dirty_tuples not exposed")
	}

	// Index shape: the AC = 131 group and the three ZIP groups each hold two
	// or more tuples; a tuple with a ZIP of its own adds a one-member group.
	if _, err := eng.Insert("01", "212", "7777777", "Cy", "5th Ave", "NYC", "10001"); err != nil {
		t.Fatal(err)
	}
	m = scrape(t, r)
	for members, want := range map[string]float64{"one": 1, "run": 4, "large": 0} {
		if got := val(t, m, `cfd_engine_index_groups{members="`+members+`"}`); got != want {
			t.Errorf("cfd_engine_index_groups{members=%q} = %v, want %v", members, got, want)
		}
	}
}

// TestDeltaRingMetrics overflows the 1024-epoch delta ring of an in-memory
// engine by one commit, then reads from behind it: the capacity gauge, the
// eviction and the forced resync all surface.
func TestDeltaRingMetrics(t *testing.T) {
	rel := dataset.Cust()
	eng, err := violation.New(rel.Attributes(), rules.Of(custRule), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	obs.InstrumentEngine(r, eng)
	since := eng.Epoch()
	for i := 0; i < 1025; i++ {
		if _, err := eng.Insert("01", "212", "777"+strconv.Itoa(i), "Cam", "5th Ave", "NYC", "01202"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Changes(since); !errors.Is(err, violation.ErrCompacted) {
		t.Fatalf("Changes(%d) err = %v, want ErrCompacted", since, err)
	}
	m := scrape(t, r)
	if got := val(t, m, "cfd_engine_delta_ring_capacity"); got != 1024 {
		t.Errorf("delta ring capacity = %v, want 1024", got)
	}
	if got := val(t, m, "cfd_engine_delta_ring_occupancy"); got != 1024 {
		t.Errorf("delta ring occupancy = %v, want 1024", got)
	}
	if got := val(t, m, "cfd_engine_delta_evictions_total"); got != 1 {
		t.Errorf("delta evictions = %v, want 1", got)
	}
	if got := val(t, m, "cfd_engine_delta_compacted_reads_total"); got != 1 {
		t.Errorf("compacted reads = %v, want 1", got)
	}
}

// TestWaitersGauge pins the long-poll depth gauge: a blocked WaitChange is
// visible at scrape time and disappears once the commit wakes it.
func TestWaitersGauge(t *testing.T) {
	rel := dataset.Cust()
	eng, err := violation.New(rel.Attributes(), rules.Of(custRule), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	obs.InstrumentEngine(r, eng)

	done := make(chan error, 1)
	go func() {
		_, err := eng.WaitChange(context.Background(), eng.Epoch())
		done <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for val(t, scrape(t, r), "cfd_engine_wait_waiters") != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never appeared in cfd_engine_wait_waiters")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := eng.Insert("01", "212", "8888888", "Dot", "5th Ave", "NYC", "01202"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("WaitChange: %v", err)
	}
	for val(t, scrape(t, r), "cfd_engine_wait_waiters") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter gauge never returned to 0")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInstrumentRuntime: the Go runtime gauges are read at scrape time and
// move with the process — a heap that holds what was just allocated, inside
// what the runtime has mapped; at least this goroutine; a pause total that
// only grows across a forced collection.
func TestInstrumentRuntime(t *testing.T) {
	r := obs.NewRegistry()
	obs.InstrumentRuntime(r)
	before := scrape(t, r)
	held := make([]byte, 8<<20)
	runtime.GC()
	after := scrape(t, r)
	runtime.KeepAlive(held)
	if grown := val(t, after, "cfd_go_heap_inuse_bytes") - val(t, before, "cfd_go_heap_inuse_bytes"); grown < 4<<20 {
		t.Errorf("heap in use grew by %.0f bytes over an 8 MiB allocation", grown)
	}
	if inuse, sys := val(t, after, "cfd_go_heap_inuse_bytes"), val(t, after, "cfd_go_sys_bytes"); inuse <= 0 || inuse > sys {
		t.Errorf("heap in use %.0f, mapped %.0f", inuse, sys)
	}
	if released := val(t, after, "cfd_go_heap_released_bytes"); released < 0 || released > val(t, after, "cfd_go_sys_bytes") {
		t.Errorf("released %.0f", released)
	}
	if n := val(t, after, "cfd_go_goroutines"); n < 1 {
		t.Errorf("%.0f goroutines", n)
	}
	if a, b := val(t, after, "cfd_go_gc_pause_seconds"), val(t, before, "cfd_go_gc_pause_seconds"); a <= b || a > 10 {
		t.Errorf("GC pause total went from %g to %g over a forced collection", b, a)
	}
}
