// Repository-level benchmarks: one benchmark function per figure of the
// paper's evaluation (§6). Each benchmark exercises the figure's workload at a
// representative, laptop-sized parameter point per algorithm, so that
//
//	make figures
//
// gives per-algorithm timings whose relative ordering reproduces the paper's
// findings. The figure benchmarks pin Workers: 1, matching the paper's
// single-threaded testbed, so their numbers track algorithmic changes rather
// than the runner's core count. The full parameter sweeps behind every figure
// are regenerated by cmd/cfdbench. Everything that is measured to be gated —
// discovery scaling, detection, ingest, memory per tuple, reads under writes,
// remines — is a metric of the repo benchmark instead (bench/README.md,
// `go run ./bench -trace 1`).
package repro

import (
	"fmt"
	"testing"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
	"repro/experiments"
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
