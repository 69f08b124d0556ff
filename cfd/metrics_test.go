package cfd_test

import (
	"testing"

	"repro/cfd"
	"repro/dataset"
	"repro/rules"
	"repro/violation"
)

// The measures of a rule on a relation have one definition each: |sup(φ, r)|
// of §2.2.2 is Relation.Support — tuples matching the pattern on LHS ∪ {RHS} —
// and the support, groups, violating tuples and confidence a server reports
// are violation.RuleStat, read off the engine's counters — support there is
// the tuples the LHS pattern selects, confidence the share of them in no
// violating group (pair semantics: a group that disagrees violates whole).

// custStat serves rule on the cust relation of Fig. 1 and returns its RuleStat.
func custStat(t *testing.T, rule cfd.CFD) violation.RuleStat {
	t.Helper()
	rel := dataset.Cust()
	eng, err := violation.New(rel.Attributes(), rules.Of(rule), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	return eng.RuleStats()[0]
}

func checkStat(t *testing.T, rule cfd.CFD, support, groups, violating int, confidence float64) {
	t.Helper()
	s := custStat(t, rule)
	if s.Support != support || s.Groups != groups || s.Violating != violating || s.Confidence != confidence {
		t.Errorf("%s: RuleStat {support %d, groups %d, violating %d, confidence %g}, want {%d, %d, %d, %g}",
			rule, s.Support, s.Groups, s.Violating, s.Confidence, support, groups, violating, confidence)
	}
}

func TestMetricsConstantRule(t *testing.T) {
	// (AC -> CT, (908 || MH)) holds exactly: the 4 AC=908 tuples all carry MH.
	checkStat(t, cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"908"}, RHSPattern: "MH"}, 4, 1, 0, 1)

	// (AC -> CT, (131 || EDI)): 3 tuples have AC=131, 2 of them CT=EDI — the
	// paper's support is those 2; the third (t8, CT=UN) makes the one AC=131
	// group violate, so all 3 tuples the rule applies to are violating.
	rule := cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"}
	if sup, err := dataset.Cust().Support(rule); err != nil || sup != 2 {
		t.Errorf("Support(%s) = %d, %v; want 2", rule, sup, err)
	}
	checkStat(t, rule, 3, 1, 3, 0)
}

func TestMetricsVariableRule(t *testing.T) {
	// f1 holds: 8 tuples in 5 (CC, AC) groups, none violating.
	checkStat(t, cfd.NewFD([]string{"CC", "AC"}, "CT"), 8, 5, 0, 1)
	// [CC,ZIP] -> STR is violated: the (01,07974) group of 3 and the
	// (01,01202) group of 2 disagree on STR, so 5 of 8 tuples violate and the
	// served confidence is 3/8.
	checkStat(t, cfd.NewFD([]string{"CC", "ZIP"}, "STR"), 8, 4, 5, 0.375)
}

func TestMetricsOutOfDomainConstant(t *testing.T) {
	rule := cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"999"}, RHSPattern: "MH"}
	// The relation's measures reject a constant outside the active domain ...
	if _, err := dataset.Cust().Support(rule); err == nil {
		t.Error("Support: constants outside the active domain must error")
	}
	// ... while a server accepts the rule — its constant may arrive later —
	// and reports it vacuously satisfied until then.
	checkStat(t, rule, 0, 0, 0, 1)
}
