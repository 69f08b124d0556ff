package violation_test

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
	"repro/obs"
	"repro/rules"
	"repro/violation"
)

// bytesPerTupleBound is 141 B measured on amd64 with Go 1.24, plus 5 %. It
// sits below the 189 B the same load holds when every LHS set keeps a group
// map of its own, the sets holding PN or NM included, where two roots serve
// them.
const bytesPerTupleBound = 148

// taxServed is the 5,000-row Tax instance the memory pins load, and its mined
// cover (71 rules).
func taxServed(t *testing.T) (*cfd.Relation, *rules.Set) {
	t.Helper()
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 5000, Arity: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	set, err := discovery.NewEngine(discovery.AlgFastCFD, rel, discovery.WithSupport(60), discovery.WithMaxLHS(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rel, set
}

// TestBulkLoadBytesPerTuple bounds the heap an engine holds per tuple after
// a bulk load: the relation's columns plus every LHS set's group index and
// the roots the near-key sets refine. On this Tax instance under its mined
// cover (71 rules) nine in ten groups hold one tuple; in a set with a group
// map of its own such a group is only its map entry, and in a refinement it
// is a slot of its root, shared by every set refining it.
func TestBulkLoadBytesPerTuple(t *testing.T) {
	rel, set := taxServed(t)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	eng, err := violation.New(rel.Attributes(), set, violation.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	perTuple := float64(heap()-before) / float64(rel.Size())
	runtime.KeepAlive(eng)
	var one, run, large int
	for _, st := range eng.IndexStats() {
		one, run, large = one+st.One, run+st.Run, large+st.Large
	}
	t.Logf("%d rules: %.0f B per tuple; groups: %d of one tuple, %d runs, %d large", set.Len(), perTuple, one, run, large)
	if perTuple > bytesPerTupleBound {
		t.Errorf("%.0f B of heap per tuple after the bulk load, want at most %d", perTuple, bytesPerTupleBound)
	}
}

// ingestIndexBytesPerTupleBound is the 66 B measured on amd64 with Go 1.24
// for churnEngine's indexes, plus 5 %. With every LHS set keeping groups of
// its own they took 238 B, most of it one group-map entry per tuple in each
// of the nine sets holding PN or NM, whose classes average 1.8 and 2.6
// tuples; two roots, on PN and on NM, now serve those sets.
const ingestIndexBytesPerTupleBound = 69

// TestIngestIndexBytesPerTuple bounds the heap churnEngine's indexes hold per
// live tuple after its bulk load: 40,000 Tax rows with 2 % noise under the
// 151 rules mined from the first 2,000, the shape of the ingest workload.
// The heap is read after a collection with the indexes and without them.
func TestIngestIndexBytesPerTuple(t *testing.T) {
	eng, _, _ := churnEngine(t, violation.Options{Workers: 1})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	with := heap()
	stats := eng.IndexStats()
	violation.DropIndexes(eng)
	perTuple := float64(with-heap()) / float64(eng.Size())
	runtime.KeepAlive(eng)
	var roots []string
	for _, st := range stats {
		if st.Root != "" && !slices.Contains(roots, st.Root) {
			roots = append(roots, st.Root)
		}
	}
	t.Logf("%d LHS sets: %.0f B of index heap per tuple; roots on %v", len(stats), perTuple, roots)
	if perTuple > ingestIndexBytesPerTupleBound {
		t.Errorf("%.0f B of index heap per tuple after the bulk load, want at most %d", perTuple, ingestIndexBytesPerTupleBound)
	}
}

// applyBatchAllocsBound is the 64,647 allocations measured on amd64 with Go
// 1.24 (64,709 under the race detector) for one round of churnEngine's batches,
// plus 5 %. Netting each batch's index flips through one map of signs per
// rule took 82,485.
const applyBatchAllocsBound = 67945

// TestApplyBatchAllocs bounds the allocations of the write path
// (BenchmarkApplyBatchChurn's iteration, on one worker): 60 batches of 256
// inserts and the 60 batches deleting those tuples again, a count that does
// not drift with the machine's load the way the benchmark's time does.
func TestApplyBatchAllocs(t *testing.T) {
	eng, _, inserts := churnEngine(t, violation.Options{Workers: 1})
	allocs := testing.AllocsPerRun(3, func() { churnRound(t, eng, inserts) })
	t.Logf("%.0f allocations per churn round", allocs)
	if allocs > applyBatchAllocsBound {
		t.Errorf("%.0f allocations per churn round, want at most %d", allocs, applyBatchAllocsBound)
	}
}

// swapRebuildAllocsBound is the 1,914 allocations measured on amd64 with Go
// 1.24 under the race detector (1,882 without) for one swap of churnEngine to
// the empty rule set and one back, plus 5 %. Filling the fresh indexes by one
// Insert per live tuple, with three allocations per group past eight
// members, took 11,149; building a group map for every LHS set, the near-key
// ones included, 2,855; and a swap that first looked for an old index with
// the same rules to keep, 1,910 (1,942 under the race detector).
const swapRebuildAllocsBound = 2010

// TestSwapRebuildAllocs bounds the allocations and the bytes of the index
// builds of a rule swap (BenchmarkSwapRebuild's iteration, on one worker):
// numbers that do not drift with the machine's load the way the benchmark's
// time does.
func TestSwapRebuildAllocs(t *testing.T) {
	eng, set, _ := churnEngine(t, violation.Options{Workers: 1})
	ctx := context.Background()
	swap := func() {
		if _, err := eng.SwapRules(ctx, rules.Of()); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SwapRules(ctx, set); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, swap)
	// A reading can include a refill of a sync.Pool or a span the runtime
	// counts whole, so the least of four is taken.
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 4 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		swap()
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	t.Logf("%.0f allocations and %d B per swap to the empty set and back", allocs, least)
	if allocs > swapRebuildAllocsBound {
		t.Errorf("%.0f allocations per swap to the empty set and back, want at most %d", allocs, swapRebuildAllocsBound)
	}
	if least > swapRebuildBytesBound {
		t.Errorf("%d B allocated per swap to the empty set and back, want at most %d", least, swapRebuildBytesBound)
	}
}

// compactBytesPerLiveTupleBound is the 52 B measured on amd64 with Go 1.24
// (54 B under the race detector), plus 15 %: the live ids and codes (32 B),
// the write buffer and the code→code table. Copying every id slot instead
// allocates 156 B per live tuple with no dead slots beside them, and
// 914 B with 45,000.
const compactBytesPerLiveTupleBound = 60

// TestCompactBytesPerLiveTuple bounds what one compaction allocates per live
// tuple, and holds it to the live tuples alone: the same 5,000 Tax rows are
// compacted once as loaded and once after nine rounds of deleting and
// re-inserting all of them have left 45,000 dead slots below, and the two
// readings must agree within 5 %.
func TestCompactBytesPerLiveTuple(t *testing.T) {
	rel, set := taxServed(t)
	perLiveTuple := func(dead int) float64 {
		eng, err := violation.New(rel.Attributes(), set, violation.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.BulkLoad(rel); err != nil {
			t.Fatal(err)
		}
		for eng.NextID() < dead+rel.Size() {
			ops := make([]violation.Op, 0, 2*rel.Size())
			for id := eng.NextID() - rel.Size(); id < eng.NextID(); id++ {
				ops = append(ops, violation.Op{Kind: violation.OpDelete, ID: id})
			}
			for i := 0; i < rel.Size(); i++ {
				ops = append(ops, violation.Op{Kind: violation.OpInsert, Values: rel.Row(i)})
			}
			if _, err := eng.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		st, err := violation.OpenStore(t.TempDir(), violation.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// The first compaction of the process also fills encoding/json's
		// type caches, so it is not measured. A reading can also include a
		// refill of a sync.Pool (which the race detector drains at random) or
		// a span the runtime counts whole, so the least of eight is taken.
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for i := 0; i <= 8; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if err := st.Compact(eng); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			if i > 0 {
				least = min(least, ms.TotalAlloc-before)
			}
		}
		return float64(least) / float64(eng.Size())
	}
	loaded, churned := perLiveTuple(0), perLiveTuple(9*rel.Size())
	t.Logf("one compaction allocates %.1f B per live tuple with no dead slots, %.1f B with %d", loaded, churned, 9*rel.Size())
	for _, got := range []float64{loaded, churned} {
		if got > compactBytesPerLiveTupleBound {
			t.Errorf("a compaction allocates %.1f B per live tuple, want at most %d", got, compactBytesPerLiveTupleBound)
		}
	}
	if churned > 1.05*loaded || loaded > 1.05*churned {
		t.Errorf("dead slots moved a compaction's allocation from %.1f to %.1f B per live tuple", loaded, churned)
	}
}

// TestObserverAllocs pins that instrumentation allocates nothing: a one-op
// insert and its delete through ApplyBatch, on an engine with a Store
// attached, allocate as much with obs.InstrumentEngine and
// obs.InstrumentStore attached as with no observer (38 per pair on amd64
// with Go 1.24). The insert is pinned to one id, so the row table never grows
// between runs.
func TestObserverAllocs(t *testing.T) {
	eng := custEngine(t, true, violation.Options{Workers: 1})
	st, err := violation.OpenStore(t.TempDir(), violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(st)
	at := eng.Size()
	insert := []violation.Op{{Kind: violation.OpInsert, At: &at, Values: []string{"01", "908", "1111111", "Amy", "Tree Ave.", "NYC", "07974"}}}
	del := []violation.Op{{Kind: violation.OpDelete, ID: at}}
	pair := func() {
		if _, err := eng.ApplyBatch(insert); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ApplyBatch(del); err != nil {
			t.Fatal(err)
		}
	}
	bare := testing.AllocsPerRun(100, pair)
	reg := obs.NewRegistry()
	obs.InstrumentEngine(reg, eng)
	obs.InstrumentStore(reg, st)
	observed := testing.AllocsPerRun(100, pair)
	t.Logf("%.0f allocations per insert-and-delete pair unobserved, %.0f observed", bare, observed)
	if observed != bare {
		t.Errorf("an insert-and-delete pair allocates %.0f times observed, %.0f unobserved", observed, bare)
	}
}
