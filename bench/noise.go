package main

import (
	"fmt"
	"math"
	"os"
)

// checkNoise answers "are the bounds honest": it makes two sets of n
// end-to-end runs of the same build on each workload (seeds seed..seed+n-1 in
// both sets, as the acceptance driver varies the seed per run), and prints
// per (workload, metric) both medians, how far the second is from the first,
// the spread inside each set (IQR as a share of the median) and the bound.
// It fails when two medians of identical code differ by more than half the
// bound: such a metric cannot gate a regression of the size of its bound.
func (e *env) checkNoise(chosen []spec, seed int64, seconds float64, n int) bool {
	ok := true
	fmt.Printf("%-13s %-12s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "diff", "spread A", "spread B", "bound")
	for _, s := range chosen {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for i := 0; i < n; i++ {
				res, metrics, err := e.run(s, seed+int64(i), seconds, false)
				if err != nil {
					fatal(err)
				}
				if !res.correct() {
					res.print(os.Stdout, seed+int64(i), metrics, false)
					ok = false
				}
				for name, m := range metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, def := range e.bench.EndToEnd {
			a, b := sets[0][def.Name], sets[1][def.Name]
			diff := math.Abs(median(b)-median(a)) / median(a)
			verdict := ""
			if diff > def.Bound/2 {
				verdict = "  <-- differs by more than half the bound"
				ok = false
			}
			fmt.Printf("%-13s %-12s %12.5g %12.5g %7.2f%% %7.2f%% %7.2f%% %6.0f%%%s\n",
				s.name, def.Name, median(a), median(b), 100*diff, 100*spread(a), 100*spread(b), 100*def.Bound, verdict)
		}
	}
	return ok
}
