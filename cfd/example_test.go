package cfd_test

import (
	"context"
	"fmt"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
)

// ExampleRelation_Satisfies checks two of the paper's CFDs against the Fig. 1
// cust relation.
func ExampleRelation_Satisfies() {
	rel := dataset.Cust()

	f1 := cfd.NewFD([]string{"CC", "AC"}, "CT")
	phi1 := cfd.CFD{
		LHS: []string{"CC", "AC"}, RHS: "CT",
		LHSPattern: []string{"01", "908"}, RHSPattern: "MH",
	}
	ok1, _ := rel.Satisfies(f1)
	ok2, _ := rel.Satisfies(phi1)
	fmt.Println(f1, ok1)
	fmt.Println(phi1, ok2)
	// Output:
	// ([CC,AC] -> CT, (_, _ || _)) true
	// ([CC,AC] -> CT, (01, 908 || MH)) true
}

// ExampleParse shows round-tripping a CFD through the textual notation used in
// rule files.
func ExampleParse() {
	c, err := cfd.Parse("([CC,ZIP] -> STR, (44, _ || _))")
	if err != nil {
		panic(err)
	}
	fmt.Println(c.RHS, c.IsVariable())
	fmt.Println(c)
	// Output:
	// STR true
	// ([CC,ZIP] -> STR, (44, _ || _))
}

// ExampleBuildTableaux groups single-pattern CFDs into the pattern-tableau
// form of §2.3 of the paper.
func ExampleBuildTableaux() {
	rules := []cfd.CFD{
		{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"01", "908"}, RHSPattern: "MH"},
		{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"44", "131"}, RHSPattern: "EDI"},
		cfd.NewFD([]string{"CC", "AC"}, "CT"),
	}
	for _, t := range cfd.BuildTableaux(rules) {
		fmt.Println(t)
	}
	// Output:
	// ([AC,CC] -> CT)
	//   (131, 44 || EDI)
	//   (908, 01 || MH)
	//   (_, _ || _)
}

// Example_discoverAndClean is the end-to-end workflow: discover rules, then
// use them to validate other data.
func Example_discoverAndClean() {
	rel := dataset.Cust()
	set, _ := discovery.NewEngine(discovery.AlgCFDMiner, rel, discovery.WithSupport(4)).Run(context.Background())
	for _, c := range set.CFDs() {
		fmt.Println(c)
	}
	// Output:
	// ([AC] -> CT, (908 || MH))
	// ([CT] -> AC, (MH || 908))
}
