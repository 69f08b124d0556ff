// The quickstart example builds the cust relation of Fig. 1 of the paper and
// discovers its minimal 2-frequent CFDs with FastCFD, printing both the flat
// list and the pattern-tableau view. Run it with:
//
//	go run ./examples/quickstart
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
	// The cust relation of Fig. 1: customers with phone, name and address.
	rel := dataset.Cust()
	fmt.Printf("cust relation: %d tuples over %v\n\n", rel.Size(), rel.Attributes())

	// Discover a canonical cover of minimal, 2-frequent CFDs.
	set, err := discovery.NewEngine(discovery.AlgFastCFD, rel, discovery.WithSupport(2)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FastCFD found %d minimal 2-frequent CFDs (%d constant, %d variable) in %s:\n",
		set.Len(), set.Constant(), set.Variable(), set.Provenance().Elapsed.Round(1e6))
	for _, c := range set.CFDs() {
		fmt.Println("  ", c)
	}

	// The same rules grouped into pattern tableaux (§2.3 of the paper): one
	// tableau per embedded FD.
	fmt.Println("\nPattern-tableau view:")
	for _, t := range cfd.BuildTableaux(set.CFDs()) {
		sup, err := rel.TableauSupport(t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  (tableau support %d)\n", t, sup)
	}

	// Check one of the paper's own examples: phi_2 = ([CC,AC] -> CT, (44,131 || EDI)).
	phi2 := cfd.CFD{
		LHS: []string{"CC", "AC"}, RHS: "CT",
		LHSPattern: []string{"44", "131"}, RHSPattern: "EDI",
	}
	minimal, err := rel.IsMinimal(phi2)
	if err != nil {
		log.Fatal(err)
	}
	support, _ := rel.Support(phi2)
	fmt.Printf("\n%s: minimal=%v support=%d (Example 5 of the paper)\n", phi2, minimal, support)
}
