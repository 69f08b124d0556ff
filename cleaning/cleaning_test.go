package cleaning_test

import (
	"bytes"
	"context"
	"reflect"
	"strconv"
	"testing"

	"repro/cfd"
	"repro/cleaning"
	"repro/dataset"
	"repro/discovery"
	"repro/rules"
)

func custRules() *rules.Set {
	return rules.Of(
		cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"},
		cfd.NewFD([]string{"CC", "ZIP"}, "STR"),
	)
}

func TestDetectOnCust(t *testing.T) {
	rel := dataset.Cust()
	rep, err := cleaning.Detect(rel, custRules())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("cust violates both rules; report should not be clean")
	}
	if rep.RulesChecked != 2 || len(rep.Violations) != 2 {
		t.Fatalf("RulesChecked=%d Violations=%d", rep.RulesChecked, len(rep.Violations))
	}
	// t8 (index 7) violates the constant rule (AC -> CT, (131||EDI)).
	foundT8 := false
	for _, t0 := range rep.DirtyTuples {
		if t0 == 7 {
			foundT8 = true
		}
	}
	if !foundT8 {
		t.Errorf("t8 should be flagged dirty: %v", rep.DirtyTuples)
	}
	byTuple := cleaning.ByTuple(rep)
	if len(byTuple) != len(rep.DirtyTuples) {
		t.Errorf("ByTuple covers %d tuples, dirty set has %d", len(byTuple), len(rep.DirtyTuples))
	}
	for _, tr := range byTuple {
		if len(tr.Rules) == 0 {
			t.Errorf("tuple %d flagged with no rules", tr.Tuple)
		}
	}
}

func TestDetectErrorsAndSkips(t *testing.T) {
	rel := dataset.Cust()
	// Unknown attribute: hard error.
	if _, err := cleaning.Detect(rel, rules.Of(cfd.NewFD([]string{"BOGUS"}, "CT"))); err == nil {
		t.Error("unknown attribute must error")
	}
	if _, err := cleaning.Detect(rel, rules.Of(cfd.NewFD([]string{"CC"}, "BOGUS"))); err == nil {
		t.Error("unknown RHS attribute must error")
	}
	// Malformed rule: hard error.
	bad := cfd.CFD{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"01", "02"}, RHSPattern: "_"}
	if _, err := cleaning.Detect(rel, rules.Of(bad)); err == nil {
		t.Error("malformed rule must error")
	}
	// Constant outside the active domain: the rule matches nothing and is skipped.
	set := rules.Of(cfd.CFD{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"99"}, RHSPattern: "XXX"})
	rep, err := cleaning.Detect(rel, set)
	if err != nil {
		t.Fatalf("out-of-domain constant should be skipped, got error %v", err)
	}
	if !rep.Clean() {
		t.Error("out-of-domain rule cannot be violated")
	}
}

func TestDetectEmptyRelation(t *testing.T) {
	rel := cfd.MustRelation("A", "B")
	rep, err := cleaning.Detect(rel, rules.Of(cfd.NewFD([]string{"A"}, "B")))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.RulesChecked != 1 || len(rep.DirtyTuples) != 0 {
		t.Fatalf("empty relation must be clean: %+v", rep)
	}
	// No rules at all is equally fine.
	rep, err = cleaning.Detect(rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.RulesChecked != 0 {
		t.Fatalf("no-rule report: %+v", rep)
	}
}

func TestDetectConstantOnlyCFDs(t *testing.T) {
	rel, err := cfd.FromRows([]string{"A", "B"}, [][]string{
		{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "x"},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := rules.Of(
		// Fully constant CFD, violated by tuple 2 alone and, through the
		// pair semantics, by the whole a-group it disagrees with.
		cfd.CFD{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"a"}, RHSPattern: "x"},
		// Constant CFD that holds.
		cfd.CFD{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"b"}, RHSPattern: "x"},
	)
	rep, err := cleaning.Detect(rel, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Fatalf("exactly the first rule is violated: %+v", rep.Violations)
	}
	if got := rep.Violations[0].Tuples; len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("violating tuples = %v, want [0 1 2]", got)
	}
	// An out-of-domain RHS constant is violated by every LHS-matching tuple.
	rep, err = cleaning.Detect(rel, rules.Of(
		cfd.CFD{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"b"}, RHSPattern: "zzz"},
	))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DirtyTuples) != 1 || rep.DirtyTuples[0] != 3 {
		t.Fatalf("dirty = %v, want [3]", rep.DirtyTuples)
	}
}

func TestApplyRepairsIdempotent(t *testing.T) {
	rel, err := cfd.FromRows([]string{"A", "B"}, [][]string{
		{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := rules.Of(cfd.NewFD([]string{"A"}, "B"))
	repairs, err := cleaning.SuggestRepairs(rel, set)
	if err != nil {
		t.Fatal(err)
	}
	once := cleaning.ApplyRepairs(rel, repairs)
	twice := cleaning.ApplyRepairs(once, repairs)
	for i := 0; i < once.Size(); i++ {
		r1, r2 := once.Row(i), twice.Row(i)
		for a := range r1 {
			if r1[a] != r2[a] {
				t.Fatalf("tuple %d differs after re-applying repairs: %v vs %v", i, r1, r2)
			}
		}
	}
	// Re-suggesting on the repaired relation finds nothing left to fix.
	again, err := cleaning.SuggestRepairs(once, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("repaired relation still suggests repairs: %+v", again)
	}
}

func TestSuggestRepairsConstantRule(t *testing.T) {
	rel := dataset.Cust()
	set := rules.Of(cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"})
	repairs, err := cleaning.SuggestRepairs(rel, set)
	if err != nil {
		t.Fatal(err)
	}
	// The single-tuple violation of t8 should be repaired to the rule constant.
	found := false
	for _, rp := range repairs {
		if rp.Tuple == 7 && rp.Attribute == "CT" {
			found = true
			if rp.Current != "UN" || rp.Suggested != "EDI" {
				t.Errorf("repair for t8 = %+v", rp)
			}
		}
	}
	if !found {
		t.Fatalf("expected a repair for t8, got %+v", repairs)
	}
	repaired := cleaning.ApplyRepairs(rel, repairs)
	rep, err := cleaning.Detect(repaired, set)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Error("applying the suggested repairs should satisfy the constant rule")
	}
}

func TestSuggestRepairsVariableRule(t *testing.T) {
	// B should be determined by A; one of the three tuples in the a-group
	// deviates and should be repaired to the majority value.
	rel, err := cfd.FromRows([]string{"A", "B"}, [][]string{
		{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := rules.Of(cfd.NewFD([]string{"A"}, "B"))
	repairs, err := cleaning.SuggestRepairs(rel, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) != 1 || repairs[0].Tuple != 2 || repairs[0].Suggested != "x" {
		t.Fatalf("unexpected repairs: %+v", repairs)
	}
	repaired := cleaning.ApplyRepairs(rel, repairs)
	rep, err := cleaning.Detect(repaired, set)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Error("repaired relation should satisfy the FD")
	}
}

// TestSuggestRepairsGroupsDoNotCollide: LHS groups whose values, joined on a
// NUL separator, spell the same string — ("a\x00","b") and ("a","\x00b") —
// are distinct groups with their own majority each. Merged, the majority
// over both (y) would "repair" the first group's two correct tuples.
func TestSuggestRepairsGroupsDoNotCollide(t *testing.T) {
	rel, err := cfd.FromRows([]string{"A", "B", "C"}, [][]string{
		{"a\x00", "b", "x"}, {"a\x00", "b", "x"}, {"a\x00", "b", "y"},
		{"a", "\x00b", "y"}, {"a", "\x00b", "y"}, {"a", "\x00b", "y"}, {"a", "\x00b", "z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	repairs, err := cleaning.SuggestRepairs(rel, rules.Of(cfd.NewFD([]string{"A", "B"}, "C")))
	if err != nil {
		t.Fatal(err)
	}
	type fix struct {
		tuple              int
		current, suggested string
	}
	var got []fix
	for _, rp := range repairs {
		got = append(got, fix{rp.Tuple, rp.Current, rp.Suggested})
	}
	if want := []fix{{2, "y", "x"}, {6, "z", "y"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("repairs = %+v, want %+v", got, want)
	}
}

func TestSuspects(t *testing.T) {
	// Under the FD A -> B, the minority tuple of the "a" group is the suspect;
	// under the constant rule, the tuple with the wrong constant is.
	rel, err := cfd.FromRows([]string{"A", "B"}, [][]string{
		{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "z"}, {"c", "w"},
	})
	if err != nil {
		t.Fatal(err)
	}
	set := rules.Of(
		cfd.NewFD([]string{"A"}, "B"),
		cfd.CFD{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"c"}, RHSPattern: "v"},
	)
	suspects, err := cleaning.Suspects(rel, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(suspects) != 2 || suspects[0] != 2 || suspects[1] != 4 {
		t.Errorf("suspects = %v, want [2 4]", suspects)
	}
	// The broad dirty set is larger than the suspect set.
	rep, err := cleaning.Detect(rel, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DirtyTuples) <= len(suspects) {
		t.Errorf("DirtyTuples (%v) should be a superset of suspects (%v)", rep.DirtyTuples, suspects)
	}
}

// TestEndToEndCleaningPipeline exercises the full motivating workflow of the
// paper: discover rules on clean data, inject noise, detect the dirty tuples.
func TestEndToEndCleaningPipeline(t *testing.T) {
	clean, err := dataset.Tax(dataset.TaxConfig{Size: 400, Arity: 7, CF: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	set, err := discovery.NewEngine(discovery.AlgFastCFD, clean, discovery.WithSupport(8), discovery.WithMaxLHS(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("no rules discovered on clean data")
	}
	dirty, perturbed := dataset.InjectNoise(clean, 0.05, 7)
	rep, err := cleaning.Detect(dirty, set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("noise injection should trigger at least one violation")
	}
	// At least one genuinely perturbed tuple must be caught.
	perturbedSet := make(map[int]bool, len(perturbed))
	for _, p := range perturbed {
		perturbedSet[p] = true
	}
	caught := 0
	for _, d := range rep.DirtyTuples {
		if perturbedSet[d] {
			caught++
		}
	}
	if caught == 0 {
		t.Error("no perturbed tuple was flagged by the discovered rules")
	}
}

// TestRepairOrderIsDeterministic: two rules repairing the same cell to
// different values come out in rule order, every time, so ApplyRepairs'
// "first one wins" — and with it cfdclean -repair — writes the same relation
// from the same input. In every block of 8 tuples, tuple 3 holds C = "y"
// where its A-group says "x" (3 to 1) and its B-group says "z" (3 to 1).
func TestRepairOrderIsDeterministic(t *testing.T) {
	var rows [][]string
	for k := 0; k < 50; k++ {
		a, b := "a"+strconv.Itoa(k), "b"+strconv.Itoa(k)
		uniq := func(i int) string { return "u" + strconv.Itoa(8*k+i) }
		rows = append(rows,
			[]string{a, uniq(0), "x"}, []string{a, uniq(1), "x"}, []string{a, uniq(2), "x"},
			[]string{a, b, "y"},
			[]string{uniq(4), b, "z"}, []string{uniq(5), b, "z"}, []string{uniq(6), b, "z"},
			[]string{uniq(7), uniq(7), "x"},
		)
	}
	rel, err := cfd.FromRows([]string{"A", "B", "C"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	byA, byB := cfd.NewFD([]string{"A"}, "C"), cfd.NewFD([]string{"B"}, "C")
	set := rules.Of(byA, byB)
	first, err := cleaning.SuggestRepairs(rel, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 100 {
		t.Fatalf("got %d repairs, want two for each of the 50 conflicted cells", len(first))
	}
	for i := 0; i < len(first); i += 2 {
		p, q := first[i], first[i+1]
		if p.Tuple != 4*i+3 || q.Tuple != p.Tuple || !p.Rule.Equal(byA) || p.Suggested != "x" || !q.Rule.Equal(byB) || q.Suggested != "z" {
			t.Fatalf("repairs %d, %d = %+v, %+v: want tuple %d under %s then %s", i, i+1, p, q, 4*i+3, byA, byB)
		}
	}
	csv := func(rel *cfd.Relation) string {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, rel); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	want := csv(cleaning.ApplyRepairs(rel, first))
	for run := 0; run < 20; run++ {
		again, err := cleaning.SuggestRepairs(rel, set)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d: SuggestRepairs returned a different slice for the same input", run)
		}
		if got := csv(cleaning.ApplyRepairs(rel, again)); got != want {
			t.Fatalf("run %d: ApplyRepairs wrote a different relation for the same input", run)
		}
	}
}
