// The data-cleaning example runs the end-to-end workflow that motivates the
// paper (§1): discover CFDs on a trusted sample, use them as data quality
// rules on a dirty copy of the data, localise the errors, and apply suggested
// repairs. It reports how many of the injected errors the discovered rules
// catch. Run it with:
//
//	go run ./examples/datacleaning
package main

import (
	"context"
	"fmt"
	"log"

	"repro/cleaning"
	"repro/dataset"
	"repro/discovery"
)

func main() {
	// 1. A clean customer/tax data set plays the role of the trusted sample.
	clean, err := dataset.Tax(dataset.TaxConfig{Size: 4000, Arity: 9, CF: 0.6, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trusted sample: %d tuples over %v\n", clean.Size(), clean.Attributes())

	// 2. Discover data-quality rules on the sample through the streaming
	// engine; Run collects the stream into a rules.Set whose provenance
	// records the run. A moderate support keeps the rules robust against
	// noise, as §2.2.2 of the paper argues.
	eng := discovery.NewEngine(discovery.AlgFastCFD, clean,
		discovery.WithSupport(40), discovery.WithMaxLHS(2))
	ruleSet, err := eng.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("discovered %d rules (%d constant, %d variable) in %s\n\n",
		ruleSet.Len(), ruleSet.Constant(), ruleSet.Variable(), ruleSet.Provenance().Elapsed.Round(1e6))

	// 3. Corrupt a copy of the data: 3% of the tuples get one wrong value.
	dirty, injected := dataset.InjectNoise(clean, 0.03, 99)
	fmt.Printf("injected errors into %d of %d tuples\n", len(injected), dirty.Size())

	// 4. Detect violations of the discovered rules on the dirty data. The
	// suspects list narrows the violating tuples down to the likely culprits
	// (minority values within their group), which is what a reviewer wants.
	// One engine over the dirty data serves the report, the suspects and (in
	// step 6) the repairs.
	live, err := cleaning.Load(dirty, ruleSet)
	if err != nil {
		log.Fatal(err)
	}
	report, suspects := live.Report(), live.Suspects()
	fmt.Printf("%d rules are violated; %d tuples are involved, %d are prime suspects\n",
		len(report.Violations), len(report.DirtyTuples), len(suspects))

	injectedSet := make(map[int]bool, len(injected))
	for _, t := range injected {
		injectedSet[t] = true
	}
	caught, truePositives := 0, 0
	for _, t := range suspects {
		if injectedSet[t] {
			truePositives++
		}
	}
	for _, t := range report.DirtyTuples {
		if injectedSet[t] {
			caught++
		}
	}
	fmt.Printf("of the %d injected errors, %d are involved in some violation and %d are prime suspects\n",
		len(injected), caught, truePositives)
	fmt.Printf("suspect precision %.0f%%, recall %.0f%%\n\n",
		100*float64(truePositives)/float64(maxInt(1, len(suspects))),
		100*float64(truePositives)/float64(maxInt(1, len(injected))))

	// 5. Show a few per-tuple reports, the view a reviewer would work from.
	byTuple := cleaning.ByTuple(report)
	for i, tr := range byTuple {
		if i == 3 {
			break
		}
		fmt.Printf("tuple %d (%v) violates %d rules, e.g. %s\n",
			tr.Tuple, dirty.Row(tr.Tuple), len(tr.Rules), tr.Rules[0])
	}

	// 6. Suggest and apply repairs, then re-check.
	repairs := live.Repairs()
	repaired := cleaning.ApplyRepairs(dirty, repairs)
	after, err := cleaning.Detect(repaired, ruleSet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplied %d repairs: dirty tuples %d -> %d\n",
		len(repairs), len(report.DirtyTuples), len(after.DirtyTuples))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
