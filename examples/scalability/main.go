// The scalability example is a miniature of the paper's §6 evaluation: it
// regenerates the DBSIZE and ARITY sweeps (Figs. 5 and 7) at the smoke-test
// scale and prints the response times of CFDMiner, CTANE, NaiveFast and
// FastCFD side by side, so the trade-offs of §6.2.3 are visible on a laptop
// within seconds. Run it with:
//
//	go run ./examples/scalability
//
// For every figure, at the default or the paper's scale, use cmd/cfdbench.
package main

import (
	"fmt"
	"log"

	"repro/experiments"
)

func main() {
	// One worker, as on the paper's single-threaded testbed.
	cfg := experiments.Config{Quick: true, Workers: 1}
	for _, id := range []string{"fig05", "fig07"} {
		fig, err := experiments.Run(id, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(fig.Table())
	}

	fmt.Println("Takeaways (matching §6.2.3 of the paper):")
	fmt.Println("  1. CFDMiner, which only mines constant CFDs, is far faster than the general algorithms.")
	fmt.Println("  2. CTANE degrades quickly as the arity grows; the depth-first algorithms do not.")
	fmt.Println("  3. FastCFD's closed-item-set difference sets beat NaiveFast as DBSIZE grows.")
}
