// Repository-level benchmarks: one benchmark function per figure of the
// paper's evaluation (§6). Each benchmark exercises the figure's workload at a
// representative, laptop-sized parameter point per algorithm, so that
//
//	go test -bench=. -benchmem
//
// gives per-algorithm timings whose relative ordering reproduces the paper's
// findings. The figure benchmarks pin Workers: 1, matching the paper's
// single-threaded testbed, so their numbers track algorithmic changes rather
// than the runner's core count; BenchmarkDiscovery covers parallel scaling
// explicitly. The full parameter sweeps behind every figure are regenerated by
// cmd/cfdbench.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/cfd"
	"repro/cleaning"
	"repro/dataset"
	"repro/discovery"
	"repro/discovery/monitor"
	"repro/experiments"
	"repro/obs"
	"repro/rules"
	"repro/violation"
)

// benchDiscover runs one discovery configuration as a sub-benchmark and
// reports the number of CFDs found as a metric.
func benchDiscover(b *testing.B, name string, alg discovery.Algorithm, rel *cfd.Relation, opts discovery.Options) {
	b.Helper()
	b.Run(name, func(b *testing.B) {
		var found int
		for i := 0; i < b.N; i++ {
			res, err := discovery.Discover(alg, rel, opts)
			if err != nil {
				b.Fatal(err)
			}
			found = len(res.CFDs)
		}
		b.ReportMetric(float64(found), "cfds")
	})
}

func taxData(b *testing.B, size, arity int, cf float64) *cfd.Relation {
	b.Helper()
	rel, err := dataset.Tax(dataset.TaxConfig{Size: size, Arity: arity, CF: cf, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return rel
}

// BenchmarkDiscovery measures the parallel discovery engine head-to-head
// against its sequential configuration on Tax instances at DBSIZE ≥ 10k: every
// parallel algorithm at Workers=1 versus one worker per CPU. On a multi-core
// machine the workers=N variants should beat workers=1; on a single core the
// two coincide (only the sequential variant is emitted). CI runs this with
// -benchtime 1x and archives the result as the per-PR perf trajectory.
func BenchmarkDiscovery(b *testing.B) {
	workerCounts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, size := range []int{10000, 20000} {
		rel := taxData(b, size, 7, 0.7)
		k := size / 200
		for _, alg := range []discovery.Algorithm{discovery.AlgCFDMiner, discovery.AlgCTANE, discovery.AlgFastCFD, discovery.AlgNaiveFast} {
			for _, workers := range workerCounts {
				name := fmt.Sprintf("%s/dbsize=%d/workers=%d", alg, size, workers)
				benchDiscover(b, name, alg, rel, discovery.Options{Support: k, Workers: workers})
			}
		}
	}
}

// detectWorkload builds the detection-benchmark workload at one DBSIZE: a Tax
// instance and a rule set discovered on its 2k-tuple head, mirroring the
// serving deployment (mine on a trusted sample, detect on the live data).
func detectWorkload(b *testing.B, size int) (*cfd.Relation, *rules.Set) {
	b.Helper()
	rel := taxData(b, size, 7, 0.7)
	eng := discovery.NewEngine(discovery.AlgFastCFD, rel.Head(2000),
		discovery.WithSupport(60), discovery.WithMaxLHS(2))
	set, err := eng.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if set.Len() == 0 {
		b.Fatal("no rules discovered for the detection workload")
	}
	return rel, set
}

// BenchmarkDetect measures the serving hot path in bulk: a full detection pass
// (engine build + bulk load + snapshot) over the whole relation, which is also
// exactly what cleaning.Detect now costs. Together with
// BenchmarkIncrementalInsert it tracks the bulk-vs-incremental gap: one
// incremental insert should cost orders of magnitude less than a rescan at
// 10k+ tuples.
func BenchmarkDetect(b *testing.B) {
	for _, size := range []int{10000, 100000} {
		rel, set := detectWorkload(b, size)
		b.Run(fmt.Sprintf("dbsize=%d", size), func(b *testing.B) {
			var dirty int
			for i := 0; i < b.N; i++ {
				rep, err := cleaning.Detect(rel, set)
				if err != nil {
					b.Fatal(err)
				}
				dirty = len(rep.DirtyTuples)
			}
			b.ReportMetric(float64(set.Len()), "rules")
			b.ReportMetric(float64(dirty), "dirty")
		})
	}
}

// BenchmarkIncrementalInsert measures the per-tuple cost of keeping a loaded
// engine current: each iteration inserts one tuple and deletes it again
// (steady state), so ns/op is the incremental maintenance cost per arriving
// tuple — O(rules) hash work, independent of DBSIZE — versus the full rescan
// of BenchmarkDetect at the same size.
func BenchmarkIncrementalInsert(b *testing.B) {
	for _, size := range []int{10000, 100000} {
		rel, set := detectWorkload(b, size)
		eng, err := violation.New(rel.Attributes(), set, violation.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.BulkLoad(rel); err != nil {
			b.Fatal(err)
		}
		// Cycle through real rows so inserts hit populated groups.
		rows := make([][]string, 256)
		for i := range rows {
			rows[i] = rel.Row(i * (rel.Size() / len(rows)))
		}
		b.Run(fmt.Sprintf("dbsize=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				id, err := eng.Insert(rows[i%len(rows)]...)
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(set.Len()), "rules")
		})
	}
}

// ingestWorkload builds the 100k serving engine of the ingest benchmarks plus
// a cycling sample of real rows, so inserts hit populated index groups.
func ingestWorkload(b *testing.B) (*violation.Engine, [][]string) {
	b.Helper()
	rel, set := detectWorkload(b, 100000)
	eng, err := violation.New(rel.Attributes(), set, violation.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		b.Fatal(err)
	}
	rows := make([][]string, 256)
	for i := range rows {
		rows[i] = rel.Row(i * (rel.Size() / len(rows)))
	}
	return eng, rows
}

// reportTuplesPerSec adds the throughput metric the per-op/batch comparison
// is read by: ns/op is per call, which differs between the two shapes.
func reportTuplesPerSec(b *testing.B, tuples int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(tuples)/s, "tuples/s")
	}
}

// BenchmarkIngest100k compares single-op Insert against the atomic
// ApplyBatch as ingest paths into a loaded 100k-tuple engine — first
// memory-only, then in the durable configuration (write-ahead log with
// fsync on every commit, as cfdserve -state -fsync runs). Compare the
// tuples/s metric across sub-benchmarks: in memory the batch wins by
// amortising locking, snapshot invalidation and per-shard index locality;
// under fsync it wins by group commit — one log record and one fsync per
// 1024 tuples instead of per tuple — which is where the multiple-fold gap
// comes from.
func BenchmarkIngest100k(b *testing.B) {
	const batchSize = 1024
	batchOf := func(rows [][]string, n int) []violation.Op {
		ops := make([]violation.Op, n)
		for i := range ops {
			ops[i] = violation.Op{Kind: violation.OpInsert, Values: rows[i%len(rows)]}
		}
		return ops
	}
	durable := func(b *testing.B, eng *violation.Engine) *violation.Store {
		b.Helper()
		st, err := violation.OpenStore(b.TempDir(), violation.StoreOptions{Sync: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		eng.AttachWAL(st)
		return st
	}

	// One iteration ingests exactly batchSize tuples on either path, so
	// ns/op is per 1024-tuple chunk, directly comparable, and both engines
	// grow identically for any b.N.
	perOp := func(b *testing.B, eng *violation.Engine, rows [][]string) {
		b.Helper()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batchSize; j++ {
				if _, err := eng.Insert(rows[j%len(rows)]...); err != nil {
					b.Fatal(err)
				}
			}
		}
		reportTuplesPerSec(b, b.N*batchSize)
	}
	batched := func(b *testing.B, eng *violation.Engine, rows [][]string) {
		b.Helper()
		ops := batchOf(rows, batchSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.ApplyBatch(ops); err != nil {
				b.Fatal(err)
			}
		}
		reportTuplesPerSec(b, b.N*batchSize)
	}

	b.Run("memory/insert-perop/chunk=1024", func(b *testing.B) {
		eng, rows := ingestWorkload(b)
		perOp(b, eng, rows)
	})
	b.Run("memory/applybatch/chunk=1024", func(b *testing.B) {
		eng, rows := ingestWorkload(b)
		batched(b, eng, rows)
	})
	// The instrumented variants run the same workloads with a live metrics
	// observer attached (as cfdserve always runs); comparing tuples/s against
	// the memory/* pair above bounds the observability overhead on the ingest
	// hot path — two counter increments and two histogram observations per
	// commit, expected within noise of the uninstrumented numbers.
	b.Run("memory-instrumented/insert-perop/chunk=1024", func(b *testing.B) {
		eng, rows := ingestWorkload(b)
		obs.InstrumentEngine(obs.NewRegistry(), eng)
		perOp(b, eng, rows)
	})
	b.Run("memory-instrumented/applybatch/chunk=1024", func(b *testing.B) {
		eng, rows := ingestWorkload(b)
		obs.InstrumentEngine(obs.NewRegistry(), eng)
		batched(b, eng, rows)
	})
	b.Run("durable-fsync/insert-perop/chunk=1024", func(b *testing.B) {
		eng, rows := ingestWorkload(b)
		durable(b, eng)
		perOp(b, eng, rows)
	})
	b.Run("durable-fsync/applybatch/chunk=1024", func(b *testing.B) {
		eng, rows := ingestWorkload(b)
		durable(b, eng)
		batched(b, eng, rows)
	})
}

// BenchmarkMemoryPerTuple measures the resident heap cost of a loaded serving
// engine — the 100k-tuple ingest workload with its mined rule set — as
// bytes/tuple: the settled HeapAlloc delta across building and bulk-loading
// the engine, after a full GC on both sides so garbage from the load itself
// does not count. This is the footprint metric of the columnar row table (a
// tuple costs arity × 4 bytes plus its share of the dictionaries and rule
// indexes, where the old per-tuple row slices paid a header and allocation
// each).
func BenchmarkMemoryPerTuple(b *testing.B) {
	rel, set := detectWorkload(b, 100000)
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		eng, err := violation.New(rel.Attributes(), set, violation.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.BulkLoad(rel); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if after := ms.HeapAlloc; after > before {
			b.ReportMetric(float64(after-before)/float64(rel.Size()), "bytes/tuple")
		}
		runtime.KeepAlive(eng)
	}
}

// BenchmarkReadUnderWrites measures the read paths at 100k tuples, idle
// versus under a sustained writer. Idle reads after the first share the
// cached epoch snapshot (nanoseconds). Under writes, Report() patches the
// previous snapshot by the committed deltas in O(changes) — the rebuild that
// used to cost ~0.2s per epoch — and the delta variant measures the
// incremental client protocol itself: poll Changes(since) and apply the
// delta locally, never taking a full snapshot at all.
func BenchmarkReadUnderWrites(b *testing.B) {
	b.Run("idle", func(b *testing.B) {
		eng, _ := ingestWorkload(b)
		eng.Report() // build the snapshot once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := eng.Report(); rep.RulesChecked == 0 {
				b.Fatal("no rules")
			}
		}
	})
	// Same reads with the metrics observer attached: snapshot patches emit one
	// counter increment and one histogram observation each, so idle reads (which
	// reuse the cached snapshot) and patched reads should both stay within noise
	// of the uninstrumented variants.
	b.Run("idle-instrumented", func(b *testing.B) {
		eng, _ := ingestWorkload(b)
		obs.InstrumentEngine(obs.NewRegistry(), eng)
		eng.Report() // build the snapshot once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := eng.Report(); rep.RulesChecked == 0 {
				b.Fatal("no rules")
			}
		}
	})
	b.Run("sustained-writes", func(b *testing.B) {
		eng, rows := ingestWorkload(b)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := eng.Insert(rows[i%len(rows)]...)
				if err != nil {
					return
				}
				if err := eng.Delete(id); err != nil {
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := eng.Report(); rep.RulesChecked == 0 {
				b.Fatal("no rules")
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
	b.Run("sustained-writes-delta", func(b *testing.B) {
		eng, rows := ingestWorkload(b)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id, err := eng.Insert(rows[i%len(rows)]...)
				if err != nil {
					return
				}
				if err := eng.Delete(id); err != nil {
					return
				}
			}
		}()
		// A delta client: one full read up front, then only Changes(since) —
		// the work behind GET /v1/violations?since=, O(changes) per poll
		// where the full report was O(n).
		since := eng.Report().Epoch
		resyncs := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := eng.Changes(since)
			if err != nil {
				since = eng.Report().Epoch // fell out of the bounded history
				resyncs++
				continue
			}
			since = d.Epoch
		}
		b.StopTimer()
		b.ReportMetric(float64(resyncs), "resyncs")
		close(stop)
		wg.Wait()
	})
}

// BenchmarkStreamTopK measures the payoff of the streaming engine's early
// termination against the full batch mine on the Tax 20k instance: WithLimit
// stops CTANE after its first 10 rules, cancelling the deeper lattice levels
// that dominate a full run.
func BenchmarkStreamTopK(b *testing.B) {
	rel := taxData(b, 20000, 7, 0.7)
	k := 20000 / 200
	b.Run("ctane/limit=10", func(b *testing.B) {
		var got int
		for i := 0; i < b.N; i++ {
			eng := discovery.NewEngine(discovery.AlgCTANE, rel,
				discovery.WithSupport(k), discovery.WithLimit(10))
			set, err := eng.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			got = set.Len()
		}
		b.ReportMetric(float64(got), "cfds")
	})
	b.Run("ctane/full", func(b *testing.B) {
		var got int
		for i := 0; i < b.N; i++ {
			eng := discovery.NewEngine(discovery.AlgCTANE, rel, discovery.WithSupport(k))
			set, err := eng.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			got = set.Len()
		}
		b.ReportMetric(float64(got), "cfds")
	})
}

// BenchmarkFig05_DBSize reproduces Fig. 5: response time of every algorithm as
// DBSIZE grows (ARITY=7, CF=0.7, k≈0.5% of DBSIZE).
func BenchmarkFig05_DBSize(b *testing.B) {
	for _, size := range []int{1000, 2000, 4000} {
		rel := taxData(b, size, 7, 0.7)
		k := size / 200
		benchDiscover(b, fmt.Sprintf("CFDMiner/dbsize=%d", size), discovery.AlgCFDMiner, rel, discovery.Options{Support: k, Workers: 1})
		benchDiscover(b, fmt.Sprintf("CTANE/dbsize=%d", size), discovery.AlgCTANE, rel, discovery.Options{Support: k, Workers: 1})
		benchDiscover(b, fmt.Sprintf("NaiveFast/dbsize=%d", size), discovery.AlgNaiveFast, rel, discovery.Options{Support: k, Workers: 1})
		benchDiscover(b, fmt.Sprintf("FastCFD/dbsize=%d", size), discovery.AlgFastCFD, rel, discovery.Options{Support: k, Workers: 1})
	}
}

// BenchmarkFig06_DBSizeCounts reproduces Fig. 6: the cost of producing the
// full cover (whose constant/variable counts the figure reports) as DBSIZE grows.
func BenchmarkFig06_DBSizeCounts(b *testing.B) {
	for _, size := range []int{1000, 2000, 4000} {
		rel := taxData(b, size, 7, 0.7)
		benchDiscover(b, fmt.Sprintf("FastCFD/dbsize=%d", size), discovery.AlgFastCFD, rel, discovery.Options{Support: size / 200, Workers: 1})
	}
}

// BenchmarkFig07_Arity reproduces Fig. 7: scalability with the arity of the
// relation. CTANE is benchmarked only at the small arities (it is the point of
// the figure that it cannot go further).
func BenchmarkFig07_Arity(b *testing.B) {
	for _, arity := range []int{7, 11, 13} {
		rel := taxData(b, 1000, arity, 0.7)
		if arity <= 11 {
			benchDiscover(b, fmt.Sprintf("CTANE/arity=%d", arity), discovery.AlgCTANE, rel, discovery.Options{Support: 10, Workers: 1})
		}
		benchDiscover(b, fmt.Sprintf("NaiveFast/arity=%d", arity), discovery.AlgNaiveFast, rel, discovery.Options{Support: 10, Workers: 1})
		benchDiscover(b, fmt.Sprintf("FastCFD/arity=%d", arity), discovery.AlgFastCFD, rel, discovery.Options{Support: 10, Workers: 1})
	}
}

// BenchmarkFig08_Support reproduces Fig. 8: sensitivity to the support
// threshold k (CTANE speeds up with k, the depth-first algorithms barely move).
func BenchmarkFig08_Support(b *testing.B) {
	rel := taxData(b, 4000, 7, 0.7)
	for _, k := range []int{10, 20, 40} {
		benchDiscover(b, fmt.Sprintf("CTANE/k=%d", k), discovery.AlgCTANE, rel, discovery.Options{Support: k, Workers: 1})
		benchDiscover(b, fmt.Sprintf("NaiveFast/k=%d", k), discovery.AlgNaiveFast, rel, discovery.Options{Support: k, Workers: 1})
		benchDiscover(b, fmt.Sprintf("FastCFD/k=%d", k), discovery.AlgFastCFD, rel, discovery.Options{Support: k, Workers: 1})
	}
}

// BenchmarkFig09_SupportCounts reproduces Fig. 9: the cover (and its size) as k
// grows.
func BenchmarkFig09_SupportCounts(b *testing.B) {
	rel := taxData(b, 4000, 7, 0.7)
	for _, k := range []int{10, 20, 40} {
		benchDiscover(b, fmt.Sprintf("FastCFD/k=%d", k), discovery.AlgFastCFD, rel, discovery.Options{Support: k, Workers: 1})
	}
}

// BenchmarkFig10_CF reproduces Fig. 10: sensitivity to the correlation factor
// CF (smaller CF = smaller domains = more frequent patterns = harder for CTANE).
func BenchmarkFig10_CF(b *testing.B) {
	for _, cf := range []float64{0.3, 0.5, 0.7} {
		rel := taxData(b, 2000, 9, cf)
		benchDiscover(b, fmt.Sprintf("CTANE/cf=%.1f", cf), discovery.AlgCTANE, rel, discovery.Options{Support: 10, Workers: 1})
		benchDiscover(b, fmt.Sprintf("NaiveFast/cf=%.1f", cf), discovery.AlgNaiveFast, rel, discovery.Options{Support: 10, Workers: 1})
		benchDiscover(b, fmt.Sprintf("FastCFD/cf=%.1f", cf), discovery.AlgFastCFD, rel, discovery.Options{Support: 10, Workers: 1})
	}
}

// BenchmarkFig11_WBC and BenchmarkFig14_WBCCounts reproduce Figs. 11/14 on the
// Wisconsin-breast-cancer-shaped data set.
func BenchmarkFig11_WBC(b *testing.B) {
	rel := dataset.WisconsinLike(0, 1)
	for _, k := range []int{20, 80} {
		benchDiscover(b, fmt.Sprintf("CTANE/k=%d", k), discovery.AlgCTANE, rel, discovery.Options{Support: k, MaxLHS: 3, Workers: 1})
		benchDiscover(b, fmt.Sprintf("FastCFD/k=%d", k), discovery.AlgFastCFD, rel, discovery.Options{Support: k, MaxLHS: 3, Workers: 1})
	}
}

func BenchmarkFig14_WBCCounts(b *testing.B) {
	rel := dataset.WisconsinLike(0, 1)
	for _, k := range []int{20, 80} {
		benchDiscover(b, fmt.Sprintf("FastCFD/k=%d", k), discovery.AlgFastCFD, rel, discovery.Options{Support: k, MaxLHS: 3, Workers: 1})
	}
}

// BenchmarkFig12_Chess and BenchmarkFig15_ChessCounts reproduce Figs. 12/15 on
// the Chess-shaped data set.
func BenchmarkFig12_Chess(b *testing.B) {
	rel := dataset.ChessLike(4000, 1)
	for _, k := range []int{20, 80} {
		benchDiscover(b, fmt.Sprintf("CTANE/k=%d", k), discovery.AlgCTANE, rel, discovery.Options{Support: k, MaxLHS: 3, Workers: 1})
		benchDiscover(b, fmt.Sprintf("FastCFD/k=%d", k), discovery.AlgFastCFD, rel, discovery.Options{Support: k, MaxLHS: 3, Workers: 1})
	}
}

func BenchmarkFig15_ChessCounts(b *testing.B) {
	rel := dataset.ChessLike(4000, 1)
	for _, k := range []int{20, 80} {
		benchDiscover(b, fmt.Sprintf("FastCFD/k=%d", k), discovery.AlgFastCFD, rel, discovery.Options{Support: k, MaxLHS: 3, Workers: 1})
	}
}

// BenchmarkFig13_Tax and BenchmarkFig16_TaxCounts reproduce Figs. 13/16 on the
// synthetic Tax data set.
func BenchmarkFig13_Tax(b *testing.B) {
	rel := taxData(b, 4000, 9, 0.7)
	for _, k := range []int{20, 80} {
		benchDiscover(b, fmt.Sprintf("CTANE/k=%d", k), discovery.AlgCTANE, rel, discovery.Options{Support: k, Workers: 1})
		benchDiscover(b, fmt.Sprintf("FastCFD/k=%d", k), discovery.AlgFastCFD, rel, discovery.Options{Support: k, Workers: 1})
	}
}

func BenchmarkFig16_TaxCounts(b *testing.B) {
	rel := taxData(b, 4000, 9, 0.7)
	for _, k := range []int{20, 80} {
		benchDiscover(b, fmt.Sprintf("FastCFD/k=%d", k), discovery.AlgFastCFD, rel, discovery.Options{Support: k, Workers: 1})
	}
}

// BenchmarkAblation_FastCFDOptimisations isolates FastCFD's two design choices
// (DESIGN.md, extensions): closed-item-set difference sets and the CFDMiner
// delegation of constant CFDs.
func BenchmarkAblation_FastCFDOptimisations(b *testing.B) {
	rel := taxData(b, 4000, 9, 0.7)
	k := 20
	benchDiscover(b, "FastCFD/full", discovery.AlgFastCFD, rel, discovery.Options{Support: k, Workers: 1})
	benchDiscover(b, "FastCFD/no-cfdminer", discovery.AlgFastCFD, rel, discovery.Options{Support: k, DisableItemsetOptimisation: true, Workers: 1})
	benchDiscover(b, "NaiveFast/partition-diffsets", discovery.AlgNaiveFast, rel, discovery.Options{Support: k, Workers: 1})
}

// BenchmarkBaselines_FDDiscovery benchmarks the plain-FD baselines the CFD
// algorithms extend, on the same data, for reference.
func BenchmarkBaselines_FDDiscovery(b *testing.B) {
	rel := taxData(b, 4000, 9, 0.7)
	benchDiscover(b, "TANE", discovery.AlgTANE, rel, discovery.Options{Workers: 1})
	benchDiscover(b, "FastFD", discovery.AlgFastFD, rel, discovery.Options{Workers: 1})
}

// BenchmarkQuickFigures runs the experiments package's quick-scale sweeps end
// to end, exactly as cmd/cfdbench -quick does, to keep the figure-regeneration
// path itself benchmarked.
func BenchmarkQuickFigures(b *testing.B) {
	for _, id := range []string{"fig09", "fig11", "datasets"} {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Run(id, experiments.Config{Quick: true, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaintainRemine compares the two rule-currency strategies under
// identical ingest churn on the 10k serving workload: a blind periodic remine
// (one bounded discovery run every interval, whether or not the data moved)
// against the change-triggered
// maintenance policy of discovery/monitor (remine only when the live
// counter-derived support drifts past the envelope). Compare the remines
// metric across the two sub-benchmarks: the triggered variant does a small
// fraction of the discovery runs for the same churn.
func BenchmarkMaintainRemine(b *testing.B) {
	const churn = 1000
	build := func(b *testing.B) (*violation.Engine, [][]string) {
		b.Helper()
		rel, set := detectWorkload(b, 10000)
		eng, err := violation.New(rel.Attributes(), set, violation.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.BulkLoad(rel); err != nil {
			b.Fatal(err)
		}
		rows := make([][]string, 256)
		for i := range rows {
			rows[i] = rel.Row(i * (rel.Size() / len(rows)))
		}
		return eng, rows
	}
	remine := func(b *testing.B, eng *violation.Engine) {
		b.Helper()
		live, _, err := eng.Relation()
		if err != nil {
			b.Fatal(err)
		}
		set, err := discovery.NewEngine(discovery.AlgFastCFD, live,
			discovery.WithSupport(60), discovery.WithMaxLHS(2), discovery.WithLimit(64)).
			Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.SwapRules(context.Background(), set); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("periodic/every=100", func(b *testing.B) {
		var remines int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, rows := build(b)
			b.StartTimer()
			remines = 0
			for step := 0; step < churn; step++ {
				if _, err := eng.Insert(rows[step%len(rows)]...); err != nil {
					b.Fatal(err)
				}
				if (step+1)%100 == 0 {
					remine(b, eng)
					remines++
				}
			}
		}
		b.ReportMetric(float64(remines), "remines")
	})
	b.Run("triggered/drift=0.1", func(b *testing.B) {
		var remines int
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			eng, rows := build(b)
			m := monitor.New(eng,
				monitor.Policy{MaxSupportDrift: 0.1, MinConfidence: 0.5, MinSupport: 60},
				func(ctx context.Context, _ monitor.Trigger) error {
					remine(b, eng)
					return nil
				})
			b.StartTimer()
			remines = 0
			for step := 0; step < churn; step++ {
				if _, err := eng.Insert(rows[step%len(rows)]...); err != nil {
					b.Fatal(err)
				}
				if tr := m.Check(); tr != nil {
					if err := m.Fire(context.Background(), *tr); err != nil {
						b.Fatal(err)
					}
					remines++
				}
			}
		}
		b.ReportMetric(float64(remines), "remines")
	})
}
