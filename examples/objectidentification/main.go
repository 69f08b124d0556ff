// The object-identification example shows the use case that motivates constant
// CFDs in the paper (§1): instance-level rules that tie constants together
// (area code 908 implies city MH, ZIP 07974 implies country code 01, ...) are
// exactly what record matching and object identification need. It mines them
// with CFDMiner — without paying the price of general CFD discovery — on a
// synthetic customer/tax data set, and then uses them to enrich a partial
// record. Run it with:
//
//	go run ./examples/objectidentification
package main

import (
	"context"
	"fmt"
	"log"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
)

func main() {
	// A synthetic customer/tax data set with embedded value-level correlations.
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 5000, Arity: 9, CF: 0.5, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("customer data: %d tuples over %v\n\n", rel.Size(), rel.Attributes())

	// Constant CFDs only: CFDMiner is orders of magnitude cheaper than general
	// CFD discovery (Fig. 5 of the paper), which matters when rules are refreshed
	// often.
	set, err := discovery.NewEngine(discovery.AlgCFDMiner, rel, discovery.WithSupport(50)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CFDMiner found %d constant CFDs with support >= 50 in %s\n",
		set.Len(), set.Provenance().Elapsed.Round(1e6))

	// Keep the compact, single-antecedent rules: they link one known value to
	// one implied value, which is the form object identification consumes.
	var linkRules []cfd.CFD
	for _, c := range set.CFDs() {
		if len(c.LHS) == 1 {
			linkRules = append(linkRules, c)
		}
	}
	cfd.SortCFDs(linkRules)
	fmt.Printf("%d of them are single-antecedent value links; the first few:\n", len(linkRules))
	for i, c := range linkRules {
		if i == 8 {
			break
		}
		fmt.Println("  ", c)
	}

	// Enrich a partial record: we only know the customer's area code, and the
	// rules fill in every attribute the area code determines.
	partial := map[string]string{"AC": "A0"}
	fmt.Printf("\nenriching the partial record %v:\n", partial)
	inferred := enrich(partial, linkRules)
	for attr, val := range inferred {
		if _, known := partial[attr]; !known {
			fmt.Printf("  inferred %s = %s\n", attr, val)
		}
	}
	if len(inferred) == len(partial) {
		fmt.Println("  (no rule applies to this record)")
	}
}

// enrich repeatedly applies single-antecedent constant rules until a fixpoint:
// whenever a known (attribute, value) pair matches a rule's LHS, the rule's
// RHS constant is added to the record.
func enrich(record map[string]string, rules []cfd.CFD) map[string]string {
	out := make(map[string]string, len(record))
	for k, v := range record {
		out[k] = v
	}
	for changed := true; changed; {
		changed = false
		for _, rule := range rules {
			if len(rule.LHS) != 1 || rule.RHSPattern == cfd.Wildcard {
				continue
			}
			if out[rule.LHS[0]] != rule.LHSPattern[0] {
				continue
			}
			if _, known := out[rule.RHS]; known {
				continue
			}
			out[rule.RHS] = rule.RHSPattern
			changed = true
		}
	}
	return out
}
