package cfd_test

import (
	"math"
	"testing"

	"repro/cfd"
	"repro/dataset"
)

func TestMetricsConstantRule(t *testing.T) {
	r := dataset.Cust()
	// (AC -> CT, (908 || MH)) holds exactly: 4 matching tuples, all with CT=MH.
	rule := cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"908"}, RHSPattern: "MH"}
	m, err := r.MetricsOf(rule)
	if err != nil {
		t.Fatal(err)
	}
	if m.MatchingLHS != 4 || m.Support != 4 {
		t.Errorf("MatchingLHS/Support = %d/%d, want 4/4", m.MatchingLHS, m.Support)
	}
	if m.Confidence != 1 {
		t.Errorf("Confidence = %v, want 1", m.Confidence)
	}
	if !math.IsInf(m.Conviction, 1) {
		t.Errorf("Conviction of an exact rule should be +Inf, got %v", m.Conviction)
	}
	if m.ChiSquare <= 0 {
		t.Errorf("ChiSquare should be positive for a correlated rule, got %v", m.ChiSquare)
	}
	if m.SupportRatio != 0.5 {
		t.Errorf("SupportRatio = %v, want 0.5", m.SupportRatio)
	}

	// (AC -> CT, (131 || EDI)) is violated by t8: 3 matching, 2 satisfying.
	rule = cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"}
	m, err = r.MetricsOf(rule)
	if err != nil {
		t.Fatal(err)
	}
	if m.MatchingLHS != 3 || m.Support != 2 {
		t.Errorf("MatchingLHS/Support = %d/%d, want 3/2", m.MatchingLHS, m.Support)
	}
	if want := 2.0 / 3.0; math.Abs(m.Confidence-want) > 1e-12 {
		t.Errorf("Confidence = %v, want %v", m.Confidence, want)
	}
	// Conviction = (1 - P(CT=EDI)) / (1 - conf) = (1 - 2/8) / (1/3) = 2.25.
	if math.Abs(m.Conviction-2.25) > 1e-9 {
		t.Errorf("Conviction = %v, want 2.25", m.Conviction)
	}
}

func TestMetricsVariableRule(t *testing.T) {
	r := dataset.Cust()
	// f1 holds: confidence 1, conviction/chi-square undefined.
	m, err := r.MetricsOf(cfd.NewFD([]string{"CC", "AC"}, "CT"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Confidence != 1 || m.Support != 8 {
		t.Errorf("f1 metrics wrong: %+v", m)
	}
	if !math.IsNaN(m.Conviction) || !math.IsNaN(m.ChiSquare) {
		t.Error("conviction and chi-square are undefined for variable-RHS CFDs")
	}
	// [CC,ZIP] -> STR is violated: the (01,07974) group keeps 2 of 3, the
	// (01,01202) group keeps 1 of 2, and the two clean groups keep 2 and 1:
	// (2+1+2+1)/8 = 6/8.
	m, err = r.MetricsOf(cfd.NewFD([]string{"CC", "ZIP"}, "STR"))
	if err != nil {
		t.Fatal(err)
	}
	if want := 6.0 / 8.0; math.Abs(m.Confidence-want) > 1e-12 {
		t.Errorf("Confidence = %v, want %v", m.Confidence, want)
	}
	if conf, err := r.Confidence(cfd.NewFD([]string{"CC", "ZIP"}, "STR")); err != nil || conf != m.Confidence {
		t.Errorf("Confidence() = %v, %v", conf, err)
	}
}

func TestMetricsOutOfDomainConstant(t *testing.T) {
	r := dataset.Cust()
	rule := cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"999"}, RHSPattern: "MH"}
	if _, err := r.MetricsOf(rule); err == nil {
		t.Error("constants outside the active domain must error")
	}
}

func TestRankByInterest(t *testing.T) {
	r := dataset.Cust()
	rules := []cfd.CFD{
		{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"44", "131"}, RHSPattern: "EDI"}, // support 2
		{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"908"}, RHSPattern: "MH"},              // support 4
		cfd.NewFD([]string{"CC", "AC"}, "CT"),                                                        // support 8
	}
	ranked, err := r.RankByInterest(rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked %d rules", len(ranked))
	}
	s0, _ := r.Support(ranked[0])
	s1, _ := r.Support(ranked[1])
	s2, _ := r.Support(ranked[2])
	if !(s0 >= s1 && s1 >= s2) {
		t.Errorf("ranking not by decreasing support: %d, %d, %d", s0, s1, s2)
	}

	// Equal support falls to confidence, and a tie on both to the canonical
	// text — not to the input order, which lists the later key first.
	mhTo908 := cfd.CFD{LHS: []string{"CT"}, RHS: "AC", LHSPattern: []string{"MH"}, RHSPattern: "908"}  // support 4, confidence 1
	partial := cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"} // support 2, confidence 2/3
	ranked, err = r.RankByInterest([]cfd.CFD{partial, mhTo908, rules[0], rules[1]})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []cfd.CFD{rules[1], mhTo908, rules[0], partial} {
		if !ranked[i].Equal(want) {
			t.Errorf("rank %d is %s, want %s", i, ranked[i], want)
		}
	}
}

func TestRemoveImplied(t *testing.T) {
	constant := cfd.CFD{LHS: []string{"ZIP"}, RHS: "CC", LHSPattern: []string{"07974"}, RHSPattern: "01"}
	variable := cfd.CFD{LHS: []string{"ZIP"}, RHS: "CC", LHSPattern: []string{"07974"}, RHSPattern: "_"}
	wider := cfd.CFD{LHS: []string{"ZIP", "AC"}, RHS: "CC", LHSPattern: []string{"07974", "_"}, RHSPattern: "_"}
	unrelated := cfd.NewFD([]string{"CC", "AC"}, "CT")
	duplicate := cfd.CFD{LHS: []string{"AC", "CC"}, RHS: "CT", LHSPattern: []string{"_", "_"}, RHSPattern: "_"}

	out := cfd.RemoveImplied([]cfd.CFD{constant, variable, wider, unrelated, duplicate})
	if len(out) != 2 {
		t.Fatalf("expected 2 CFDs to survive, got %d: %v", len(out), out)
	}
	if !out[0].Equal(constant) || !out[1].Equal(unrelated) {
		t.Errorf("unexpected survivors: %v", out)
	}
	// Regardless of input order, the constant rule survives and absorbs the
	// variable one (never the other way around).
	out = cfd.RemoveImplied([]cfd.CFD{variable, constant})
	if len(out) != 1 || !out[0].Equal(constant) {
		t.Errorf("the constant rule must survive and absorb the variable one: %v", out)
	}
	// Different RHS attributes never imply one another syntactically.
	other := cfd.CFD{LHS: []string{"ZIP"}, RHS: "AC", LHSPattern: []string{"07974"}, RHSPattern: "908"}
	out = cfd.RemoveImplied([]cfd.CFD{constant, other})
	if len(out) != 2 {
		t.Errorf("rules on different RHS attributes must both survive: %v", out)
	}
}

// TestRemoveImpliedPreservesSemantics checks soundness on the cust relation: a
// relation satisfying the reduced cover satisfies everything that was removed.
func TestRemoveImpliedPreservesSemantics(t *testing.T) {
	r := dataset.Cust()
	all := []cfd.CFD{
		{LHS: []string{"ZIP"}, RHS: "CC", LHSPattern: []string{"07974"}, RHSPattern: "01"},
		{LHS: []string{"ZIP"}, RHS: "CC", LHSPattern: []string{"07974"}, RHSPattern: "_"},
		{LHS: []string{"ZIP", "CT"}, RHS: "CC", LHSPattern: []string{"07974", "_"}, RHSPattern: "_"},
	}
	kept := cfd.RemoveImplied(all)
	if len(kept) >= len(all) {
		t.Fatal("expected at least one CFD to be removed")
	}
	// Everything removed must still hold on a relation satisfying the kept set
	// (cust satisfies all of them, so this is a consistency check of the rules
	// used by impliedBy rather than a full semantic proof).
	for _, c := range all {
		ok, err := r.Satisfies(c)
		if err != nil || !ok {
			t.Errorf("%s should hold on cust: %v %v", c, ok, err)
		}
	}
}
