package violation_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
	"repro/rules"
	"repro/violation"
)

// naiveDetect is the seed implementation of repro/cleaning's batch detector,
// kept here verbatim as the reference the engine must reproduce byte for byte:
// every rule is evaluated by a full-relation scan through cfd.Relation
// .Violations, with the seed's handling of rule constants outside the active
// domain (an out-of-domain LHS constant matches nothing; an out-of-domain RHS
// constant is violated by every LHS-matching tuple).
func naiveDetect(t *testing.T, rel *cfd.Relation, rules []cfd.CFD) []violation.Violation {
	t.Helper()
	var out []violation.Violation
	for _, rule := range rules {
		tuples, err := naiveRuleViolations(rel, rule)
		if err != nil {
			t.Fatalf("naive detect: %v", err)
		}
		if len(tuples) > 0 {
			out = append(out, violation.Violation{Rule: rule, Tuples: tuples})
		}
	}
	return out
}

func naiveRuleViolations(rel *cfd.Relation, rule cfd.CFD) ([]int, error) {
	tuples, err := rel.Violations(rule)
	if err == nil {
		return tuples, nil
	}
	lhsOnly := rule
	lhsOnly.RHSPattern = cfd.Wildcard
	if _, lhsErr := rel.Violations(lhsOnly); lhsErr != nil {
		return nil, nil
	}
	if rule.RHSPattern == cfd.Wildcard {
		return nil, err
	}
	attrs := rel.Attributes()
	index := make(map[string]int, len(attrs))
	for i, a := range attrs {
		index[a] = i
	}
	var out []int
	for t := 0; t < rel.Size(); t++ {
		row := rel.Row(t)
		ok := true
		for i, a := range rule.LHS {
			if rule.LHSPattern[i] != cfd.Wildcard && row[index[a]] != rule.LHSPattern[i] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out, nil
}

// collect is the engine's report as a list that is nil when empty.
func collect(e *violation.Engine) []violation.Violation {
	return append([]violation.Violation(nil), e.Report().Violations...)
}

// fixtures returns relation/rule-set pairs covering constant, variable and
// mixed rules, out-of-domain constants on both sides, empty-LHS rules and
// discovered rule sets on noisy data.
func fixtures(t testing.TB) []struct {
	name  string
	rel   *cfd.Relation
	rules []cfd.CFD
} {
	t.Helper()
	cust := dataset.Cust()
	custRules := []cfd.CFD{
		{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"},
		cfd.NewFD([]string{"CC", "ZIP"}, "STR"),
		// Mixed rule: constant RHS under a wildcard LHS entry.
		{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"_"}, RHSPattern: "MH"},
		// Out-of-domain LHS constant: matches nothing.
		{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"99"}, RHSPattern: "XXX"},
		// Out-of-domain RHS constant: every matching tuple violates.
		{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"01"}, RHSPattern: "XXX"},
		// Empty LHS: the RHS must be globally constant.
		{LHS: nil, RHS: "CC", LHSPattern: nil, RHSPattern: "01"},
	}

	clean, err := dataset.Tax(dataset.TaxConfig{Size: 300, Arity: 7, CF: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := discovery.NewEngine(discovery.AlgFastCFD, clean, discovery.WithSupport(6), discovery.WithMaxLHS(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mined.Len() == 0 {
		t.Fatal("no rules discovered on clean tax data")
	}
	dirty, _ := dataset.InjectNoise(clean, 0.08, 5)

	return []struct {
		name  string
		rel   *cfd.Relation
		rules []cfd.CFD
	}{
		{"cust", cust, custRules},
		{"tax-discovered", dirty, mined.CFDs()},
	}
}

// TestBulkLoadMatchesNaiveDetect is the cross-check the engine is defined by:
// a bulk-loaded engine reports exactly the violation set of the seed batch
// detector, rule by rule, tuple by tuple.
func TestBulkLoadMatchesNaiveDetect(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.BulkLoad(fx.rel); err != nil {
				t.Fatal(err)
			}
			got := collect(eng)
			want := naiveDetect(t, fx.rel, fx.rules)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("engine snapshot:\n%v\nnaive detect:\n%v", got, want)
			}
		})
	}
}

// TestIncrementalInsertMatchesBulk inserts the relation one tuple at a time
// and requires the exact state of a single bulk load after every prefix-final
// state, plus identical reports at the end.
func TestIncrementalInsertMatchesBulk(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			bulk, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := bulk.BulkLoad(fx.rel); err != nil {
				t.Fatal(err)
			}
			inc, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < fx.rel.Size(); i++ {
				id, err := inc.Insert(fx.rel.Row(i)...)
				if err != nil {
					t.Fatal(err)
				}
				if id != i {
					t.Fatalf("insert %d got id %d", i, id)
				}
			}
			got, want := inc.Report(), bulk.Report()
			// The epoch counts mutations, so it legitimately differs between
			// the two histories; the state must not.
			got.Epoch, want.Epoch = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("incremental report:\n%+v\nbulk report:\n%+v", got, want)
			}
		})
	}
}

// TestWorkerCountsAgree checks BulkLoad determinism across worker budgets.
func TestWorkerCountsAgree(t *testing.T) {
	fx := fixtures(t)[1]
	var reports []*violation.Report
	for _, workers := range []int{1, 4} {
		eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.BulkLoad(fx.rel); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, eng.Report())
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatal("bulk load reports differ across worker counts")
	}
}

// TestDeleteAndUpdateMaintenance mutates the engine and cross-checks every
// state against a naive detect over the matching materialised relation.
func TestDeleteAndUpdateMaintenance(t *testing.T) {
	rel, err := cfd.FromRows([]string{"A", "B"}, [][]string{
		{"a", "x"}, {"a", "x"}, {"a", "y"}, {"b", "z"}, {"c", "v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ruleList := []cfd.CFD{
		cfd.NewFD([]string{"A"}, "B"),
		{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"c"}, RHSPattern: "w"},
	}
	eng, err := violation.New(rel.Attributes(), rules.Of(ruleList...), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}

	check := func(step string) {
		t.Helper()
		cur, ids, err := eng.Relation()
		if err != nil {
			t.Fatal(err)
		}
		want := naiveDetect(t, cur, ruleList)
		// Translate the naive result from relation indexes to engine ids.
		for vi := range want {
			for ti, tu := range want[vi].Tuples {
				want[vi].Tuples[ti] = ids[tu]
			}
		}
		got := collect(eng)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: engine %v, naive %v", step, got, want)
		}
	}

	check("after bulk load")
	// Deleting the deviant of the a-group heals the FD violation there.
	if err := eng.Delete(2); err != nil {
		t.Fatal(err)
	}
	check("after delete")
	// Updating tuple 4 to carry the rule constant heals the constant rule.
	if err := eng.Update(4, "c", "w"); err != nil {
		t.Fatal(err)
	}
	check("after healing update")
	// Updating tuple 3 into the a-group with a fresh B value re-violates.
	if err := eng.Update(3, "a", "q"); err != nil {
		t.Fatal(err)
	}
	check("after dirtying update")
	// Fresh insert into a clean group.
	if _, err := eng.Insert("d", "d1"); err != nil {
		t.Fatal(err)
	}
	check("after insert")
	if eng.Size() != 5 {
		t.Fatalf("live size = %d, want 5 (5 loaded - 1 deleted + 1 inserted)", eng.Size())
	}
}

func TestTupleViolationsAndDirty(t *testing.T) {
	fx := fixtures(t)[0]
	eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(fx.rel); err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	dirty := make(map[int]bool)
	for _, id := range rep.DirtyTuples {
		dirty[id] = true
	}
	for id := 0; id < eng.Size(); id++ {
		violated, err := eng.TupleViolations(id)
		if err != nil {
			t.Fatal(err)
		}
		if (len(violated) > 0) != dirty[id] {
			t.Fatalf("tuple %d: %d violated rules but dirty=%v", id, len(violated), dirty[id])
		}
	}
	if eng.DirtyCount() != len(rep.DirtyTuples) {
		t.Fatalf("DirtyCount %d != |DirtyTuples| %d", eng.DirtyCount(), len(rep.DirtyTuples))
	}
	if got := eng.Dirty(); !reflect.DeepEqual(got, rep.DirtyTuples) {
		t.Fatalf("Dirty %v != report %v", got, rep.DirtyTuples)
	}
}

// TestDirtyCountExact counts a tuple that violates two rules once, through
// inserts, a delete and a rule swap: DirtyCount is the size of the dirty
// union, not the sum of the per-rule violating counts.
func TestDirtyCountExact(t *testing.T) {
	ab, ac := cfd.NewFD([]string{"A"}, "B"), cfd.NewFD([]string{"A"}, "C")
	eng, err := violation.New([]string{"A", "B", "C"}, rules.Of(ab, ac), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, want int) {
		t.Helper()
		if got, dirty := eng.DirtyCount(), len(eng.Report().DirtyTuples); got != dirty || got != want {
			t.Fatalf("%s: DirtyCount %d, |DirtyTuples| %d, want %d", when, got, dirty, want)
		}
	}
	check("empty", 0)
	for _, row := range [][]string{{"a", "1", "1"}, {"a", "2", "2"}, {"a", "1", "3"}} {
		if _, err := eng.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	check("three tuples each violating both rules", 3)
	if err := eng.Delete(1); err != nil {
		t.Fatal(err)
	}
	check("after deleting one", 2) // tuples 0 and 2 still disagree on C
	if _, err := eng.SwapRules(context.Background(), rules.Of(ab)); err != nil {
		t.Fatal(err)
	}
	check("after swapping A -> C out", 0)
}

func TestEngineErrors(t *testing.T) {
	attrs := []string{"A", "B"}
	if _, err := violation.New(attrs, rules.Of(cfd.NewFD([]string{"BOGUS"}, "B")), violation.Options{}); err == nil {
		t.Error("unknown LHS attribute must error")
	}
	if _, err := violation.New(attrs, rules.Of(cfd.NewFD([]string{"A"}, "BOGUS")), violation.Options{}); err == nil {
		t.Error("unknown RHS attribute must error")
	}
	malformed := cfd.CFD{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"1", "2"}, RHSPattern: "_"}
	if _, err := violation.New(attrs, rules.Of(malformed), violation.Options{}); err == nil {
		t.Error("malformed rule must error")
	}
	eng, err := violation.New(attrs, rules.Of(cfd.NewFD([]string{"A"}, "B")), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("only-one-value"); err == nil {
		t.Error("arity mismatch on insert must error")
	}
	if err := eng.Delete(0); err == nil {
		t.Error("deleting an unknown id must error")
	}
	id, err := eng.Insert("a", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(id); err == nil {
		t.Error("double delete must error")
	}
	if _, err := eng.TupleViolations(id); err == nil {
		t.Error("per-tuple lookup of a deleted id must error")
	}
	other := cfd.MustRelation("X", "Y")
	if err := eng.BulkLoad(other); err == nil {
		t.Error("bulk load with a mismatched schema must error")
	}
}

// TestRuleSetPreserved checks that the engine hands back the rule set it was
// built from — rules, order and provenance — which is what cfdserve's
// GET /rules serves.
func TestRuleSetPreserved(t *testing.T) {
	rel := dataset.Cust()
	set, err := discovery.NewEngine(discovery.AlgCTANE, rel, discovery.WithSupport(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := violation.New(rel.Attributes(), set, violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := eng.RuleSet()
	if got == set {
		t.Fatal("RuleSet must return a defensive copy, not the live internal pointer")
	}
	if got.Fingerprint() != set.Fingerprint() || !reflect.DeepEqual(got.CFDs(), set.CFDs()) {
		t.Fatal("RuleSet copy must carry the exact rules of the set the engine was built from")
	}
	if got.Provenance() != set.Provenance() || got.Provenance().Algorithm != "ctane" {
		t.Fatalf("provenance lost: %+v", got.Provenance())
	}
	if len(eng.Rules()) != set.Len() {
		t.Fatalf("Rules() has %d entries, set %d", len(eng.Rules()), set.Len())
	}
	// A nil set is served as empty.
	empty, err := violation.New(rel.Attributes(), nil, violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if empty.RuleSet().Len() != 0 || len(empty.Rules()) != 0 {
		t.Fatal("nil set must build an empty engine")
	}
}

// TestRuleSetMutationSafety is the satellite fix's proof: a caller scribbling
// over the set RuleSet returned must not perturb the engine — neither its
// rule table nor what a later RuleSet call sees.
func TestRuleSetMutationSafety(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	wantRules := append([]cfd.CFD(nil), eng.Rules()...)
	wantFP := eng.RuleSet().Fingerprint()
	before := eng.Report()

	leaked := eng.RuleSet()
	for i := range leaked.CFDs() {
		// Overwrite every rule of the returned copy in place.
		leaked.CFDs()[i] = cfd.NewFD([]string{"PN"}, "NM")
	}

	if !reflect.DeepEqual(eng.Rules(), wantRules) {
		t.Fatalf("engine rules changed after mutating the RuleSet copy:\n%v\nwant\n%v", eng.Rules(), wantRules)
	}
	if got := eng.RuleSet().Fingerprint(); got != wantFP {
		t.Fatalf("RuleSet fingerprint drifted: %s, want %s", got, wantFP)
	}
	if !reflect.DeepEqual(eng.Report(), before) {
		t.Fatal("violation report changed after mutating the RuleSet copy")
	}
}

// TestTupleReadMutationSafety: Row and Tuples decode fresh value slices from
// the columnar store — never views into engine internals — so a caller
// scribbling over what they got back must not perturb the engine's tuples,
// its dictionaries, or its violation report.
func TestTupleReadMutationSafety(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	wantRow, err := eng.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	wantRow = append([]string(nil), wantRow...)
	wantTuples, _, _ := eng.Tuples(0, 0)
	for i := range wantTuples {
		wantTuples[i].Values = append([]string(nil), wantTuples[i].Values...)
	}
	before := eng.Report()

	leakedRow, err := eng.Row(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range leakedRow {
		leakedRow[i] = "SCRIBBLED"
	}
	leakedTuples, _, _ := eng.Tuples(0, 0)
	for i := range leakedTuples {
		for j := range leakedTuples[i].Values {
			leakedTuples[i].Values[j] = "SCRIBBLED"
		}
	}

	if got, err := eng.Row(0); err != nil || !reflect.DeepEqual(got, wantRow) {
		t.Fatalf("Row(0) changed after mutating returned slices: %v (err %v), want %v", got, err, wantRow)
	}
	if got, _, _ := eng.Tuples(0, 0); !reflect.DeepEqual(got, wantTuples) {
		t.Fatalf("Tuples changed after mutating returned slices:\n%v\nwant\n%v", got, wantTuples)
	}
	if !reflect.DeepEqual(eng.Report(), before) {
		t.Fatal("violation report changed after mutating tuple reads")
	}
}

// TestViolationsStreamingStops: a first-match query — which rule is violated
// first, in rule order — is the head of the report, and reading it copies
// nothing: two reads at one epoch share the snapshot's slices. (The name is
// the streaming iterator's, which the report replaced.)
func TestViolationsStreamingStops(t *testing.T) {
	fx := fixtures(t)[0]
	eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(fx.rel); err != nil {
		t.Fatal(err)
	}
	first := eng.Report().Violations
	want := naiveDetect(t, fx.rel, fx.rules)
	if len(first) == 0 || !reflect.DeepEqual(first[0], want[0]) {
		t.Fatalf("first violated rule = %v, naive %v", first, want[0])
	}
	if again := eng.Report().Violations; &again[0] != &first[0] {
		t.Fatal("a second report at the same epoch copied the snapshot")
	}
}

func ExampleEngine() {
	rel := dataset.Cust()
	eng, err := violation.New(rel.Attributes(),
		rules.Of(cfd.CFD{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"131"}, RHSPattern: "EDI"}),
		violation.Options{})
	if err != nil {
		panic(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		panic(err)
	}
	fmt.Println("dirty after load:", eng.Dirty())
	_, _ = eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT")
	fmt.Println("dirty after insert:", eng.Dirty())
	// Repairing the two wrong city values heals the whole AC=131 group.
	_ = eng.Update(7, "01", "131", "2222222", "Sean", "3rd Str.", "EDI", "01202")
	_ = eng.Update(8, "44", "131", "5555555", "Amy", "High St.", "EDI", "EH4 1DT")
	fmt.Println("dirty after repair:", eng.Dirty())
	// Output:
	// dirty after load: [4 5 7]
	// dirty after insert: [4 5 7 8]
	// dirty after repair: []
}
