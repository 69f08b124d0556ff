package core_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// mk builds a CFD over the cust relation from attribute names and string
// pattern values; "_" denotes the unnamed variable.
func mk(t *testing.T, r *core.Relation, lhs []string, lhsPat []string, rhs, rhsPat string) core.CFD {
	t.Helper()
	s := r.Schema()
	X, err := s.AttrSetOf(lhs...)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := s.Index(rhs)
	if !ok {
		t.Fatalf("unknown RHS %q", rhs)
	}
	p := core.NewPattern(s.Arity())
	for i, name := range lhs {
		idx, _ := s.Index(name)
		if lhsPat[i] != "_" {
			code, ok := r.Dict(idx).Lookup(lhsPat[i])
			if !ok {
				t.Fatalf("value %q not in domain of %s", lhsPat[i], name)
			}
			p[idx] = code
		}
	}
	if rhsPat != "_" {
		code, ok := r.Dict(a).Lookup(rhsPat)
		if !ok {
			t.Fatalf("value %q not in domain of %s", rhsPat, rhs)
		}
		p[a] = code
	}
	return core.CFD{LHS: X, RHS: a, Tp: p}
}

// TestPaperExample1And3 verifies satisfaction of every CFD named in Examples 1
// and 3 of the paper against the Fig. 1 instance.
func TestPaperExample1And3(t *testing.T) {
	r := fixture.Cust()

	f1 := mk(t, r, []string{"CC", "AC"}, []string{"_", "_"}, "CT", "_")
	f2 := mk(t, r, []string{"CC", "AC", "PN"}, []string{"_", "_", "_"}, "STR", "_")
	phi0 := mk(t, r, []string{"CC", "ZIP"}, []string{"44", "_"}, "STR", "_")
	phi1 := mk(t, r, []string{"CC", "AC"}, []string{"01", "908"}, "CT", "MH")
	phi2 := mk(t, r, []string{"CC", "AC"}, []string{"44", "131"}, "CT", "EDI")
	phi3 := mk(t, r, []string{"CC", "AC"}, []string{"01", "212"}, "CT", "NYC")

	for name, c := range map[string]core.CFD{"f1": f1, "f2": f2, "phi0": phi0, "phi1": phi1, "phi2": phi2, "phi3": phi3} {
		if !core.Satisfies(r, c) {
			t.Errorf("%s should be satisfied: %s", name, c.Format(r))
		}
	}

	// Example 3: psi = ([CC,ZIP] -> STR, (_,_||_)) is violated, among others, by
	// the pair t1, t4 (paper's example); the groups (01,07974) -> {t1,t2,t4} and
	// (01,01202) -> {t3,t8} both disagree on STR, so Violations reports all five.
	psi := mk(t, r, []string{"CC", "ZIP"}, []string{"_", "_"}, "STR", "_")
	if core.Satisfies(r, psi) {
		t.Errorf("psi should be violated: %s", psi.Format(r))
	}
	v := core.Violations(r, psi)
	want := []int{0, 1, 2, 3, 7}
	if len(v) != len(want) {
		t.Fatalf("violations of psi = %v, want %v", v, want)
	}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("violations of psi = %v, want %v", v, want)
		}
	}
	// psi' = (AC -> CT, (131||EDI)): t8 violates it on its own (single-tuple
	// violation); t5 and t6 are each involved in a violating pair with t8.
	psiP := mk(t, r, []string{"AC"}, []string{"131"}, "CT", "EDI")
	if core.Satisfies(r, psiP) {
		t.Errorf("psi' should be violated: %s", psiP.Format(r))
	}
	v = core.Violations(r, psiP)
	if len(v) != 3 || v[0] != 4 || v[1] != 5 || v[2] != 7 {
		t.Errorf("violations of psi' = %v, want [4 5 7]", v)
	}
}

// TestPaperExample5 verifies the minimality claims of Example 5.
func TestPaperExample5(t *testing.T) {
	r := fixture.Cust()

	phi2 := mk(t, r, []string{"CC", "AC"}, []string{"44", "131"}, "CT", "EDI")
	if !core.IsMinimal(r, phi2) {
		t.Errorf("phi2 should be a minimal constant CFD")
	}
	f1 := mk(t, r, []string{"CC", "AC"}, []string{"_", "_"}, "CT", "_")
	f2 := mk(t, r, []string{"CC", "AC", "PN"}, []string{"_", "_", "_"}, "STR", "_")
	phi0 := mk(t, r, []string{"CC", "ZIP"}, []string{"44", "_"}, "STR", "_")
	for name, c := range map[string]core.CFD{"f1": f1, "f2": f2, "phi0": phi0} {
		if !core.IsMinimal(r, c) {
			t.Errorf("%s should be a minimal variable CFD", name)
		}
	}
	// phi3 is not minimal: CC can be dropped.
	phi3 := mk(t, r, []string{"CC", "AC"}, []string{"01", "212"}, "CT", "NYC")
	if core.IsLeftReduced(r, phi3) {
		t.Errorf("phi3 should not be left-reduced")
	}
	// phi1 is not minimal: CC can be dropped since (AC -> CT, (908||MH)) holds.
	phi1 := mk(t, r, []string{"CC", "AC"}, []string{"01", "908"}, "CT", "MH")
	if core.IsLeftReduced(r, phi1) {
		t.Errorf("phi1 should not be left-reduced")
	}
	dropped := mk(t, r, []string{"AC"}, []string{"908"}, "CT", "MH")
	if !core.IsMinimal(r, dropped) {
		t.Errorf("(AC -> CT, (908||MH)) should be minimal")
	}
	// f1 with partially-constant patterns (the f1^i of Example 5) hold but are
	// not left-reduced because the constants can be upgraded to "_".
	variants := [][2][]string{
		{{"01", "_"}, nil}, {{"44", "_"}, nil}, {{"_", "908"}, nil}, {{"_", "212"}, nil}, {{"_", "131"}, nil},
	}
	for _, v := range variants {
		c := mk(t, r, []string{"CC", "AC"}, v[0], "CT", "_")
		if !core.Satisfies(r, c) {
			t.Errorf("variant %v of f1 should hold", v[0])
		}
		if core.IsLeftReduced(r, c) {
			t.Errorf("variant %v of f1 should not be left-reduced (pattern not most general)", v[0])
		}
	}
}

// TestSupportAndFrequency verifies the support figures quoted in §2.2.2.
func TestSupportAndFrequency(t *testing.T) {
	r := fixture.Cust()
	phi1 := mk(t, r, []string{"CC", "AC"}, []string{"01", "908"}, "CT", "MH")
	phi2 := mk(t, r, []string{"CC", "AC"}, []string{"44", "131"}, "CT", "EDI")
	f1 := mk(t, r, []string{"CC", "AC"}, []string{"_", "_"}, "CT", "_")
	f2 := mk(t, r, []string{"CC", "AC", "PN"}, []string{"_", "_", "_"}, "STR", "_")

	if got := core.Support(r, phi1); got != 3 {
		t.Errorf("sup(phi1) = %d, want 3", got)
	}
	if got := core.Support(r, phi2); got != 2 {
		t.Errorf("sup(phi2) = %d, want 2", got)
	}
	if got := core.Support(r, f1); got != 8 {
		t.Errorf("sup(f1) = %d, want 8", got)
	}
	if got := core.Support(r, f2); got != 8 {
		t.Errorf("sup(f2) = %d, want 8", got)
	}
	// The constants of the LHS pattern alone — what k-frequency of a lattice
	// element counts (§4.2).
	if got := r.CountMatching(f1.Tp.ConstAttrs(f1.LHS), f1.Tp); got != 8 {
		t.Errorf("LHS constant support of f1 = %d, want 8 (no constants)", got)
	}
	if got := r.CountMatching(phi1.Tp.ConstAttrs(phi1.LHS), phi1.Tp); got != 3 {
		t.Errorf("LHS constant support of phi1 = %d, want 3", got)
	}
}

func TestTrivialCFD(t *testing.T) {
	r := fixture.Cust()
	c := mk(t, r, []string{"CC", "AC"}, []string{"_", "_"}, "CC", "_")
	if !c.IsTrivial() {
		t.Fatal("CFD with RHS in LHS must be trivial")
	}
	if !core.Satisfies(r, c) {
		t.Error("trivial CFD with consistent pattern is satisfied by definition")
	}
	if core.IsMinimal(r, c) {
		t.Error("trivial CFDs are never minimal")
	}
	if core.Violations(r, c) != nil {
		t.Error("trivial CFD should report no violations")
	}
}

func TestCFDClassification(t *testing.T) {
	r := fixture.Cust()
	constant := mk(t, r, []string{"AC"}, []string{"908"}, "CT", "MH")
	variable := mk(t, r, []string{"CC", "AC"}, []string{"44", "_"}, "CT", "_")
	mixed := mk(t, r, []string{"AC"}, []string{"_"}, "CT", "MH")
	if !constant.IsConstant() || constant.IsVariable() {
		t.Error("constant CFD misclassified")
	}
	if variable.IsConstant() || !variable.IsVariable() {
		t.Error("variable CFD misclassified")
	}
	if mixed.IsConstant() || mixed.IsVariable() {
		t.Error("constant-RHS CFD with wildcard LHS is neither constant nor variable")
	}
}

func TestCFDKeyAndDedup(t *testing.T) {
	r := fixture.Cust()
	a := mk(t, r, []string{"AC"}, []string{"908"}, "CT", "MH")
	b := mk(t, r, []string{"AC"}, []string{"908"}, "CT", "MH")
	c := mk(t, r, []string{"AC"}, []string{"131"}, "CT", "EDI")
	if a.Key() != b.Key() {
		t.Error("identical CFDs must share a key")
	}
	if a.Key() == c.Key() {
		t.Error("different CFDs must not share a key")
	}
	list := core.DedupCFDs([]core.CFD{a, b, c})
	if len(list) != 2 {
		t.Errorf("DedupCFDs kept %d, want 2", len(list))
	}
	core.SortCFDs(list)
	if list[0].Key() > list[1].Key() {
		t.Error("SortCFDs did not sort by key")
	}
}

func TestFormat(t *testing.T) {
	r := fixture.Cust()
	c := mk(t, r, []string{"CC", "AC"}, []string{"01", "_"}, "CT", "MH")
	got := c.Format(r)
	want := "([CC,AC] -> CT, (01, _ || MH))"
	if got != want {
		t.Errorf("Format = %q, want %q", got, want)
	}
}

// TestSatisfiesEmptyLHS covers CFDs with an empty left-hand side: (∅ -> A, (||a))
// holds iff every tuple has A = a; (∅ -> A, (||_)) holds iff A is constant in r.
func TestSatisfiesEmptyLHS(t *testing.T) {
	r := core.NewRelation(core.MustSchema("A", "B"))
	for _, row := range [][]string{{"1", "x"}, {"2", "x"}, {"3", "x"}} {
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	p := core.NewPattern(2)
	cVar := core.CFD{LHS: core.EmptyAttrSet, RHS: 1, Tp: p.Clone()}
	if !core.Satisfies(r, cVar) {
		t.Error("(∅ -> B, (||_)) should hold: B is constant")
	}
	code, _ := r.Dict(1).Lookup("x")
	pc := p.Clone()
	pc[1] = code
	cConst := core.CFD{LHS: core.EmptyAttrSet, RHS: 1, Tp: pc}
	if !core.Satisfies(r, cConst) {
		t.Error("(∅ -> B, (||x)) should hold")
	}
	cVarA := core.CFD{LHS: core.EmptyAttrSet, RHS: 0, Tp: p.Clone()}
	if core.Satisfies(r, cVarA) {
		t.Error("(∅ -> A, (||_)) should be violated: A is not constant")
	}
}

// TestViolationsConstantRHS checks single-tuple violations for constant CFDs.
func TestViolationsConstantRHS(t *testing.T) {
	// Pair semantics: the tuples that match the LHS pattern and agree on the
	// LHS form one group, and a group with a member missing the constant
	// violates as a whole — the members carrying the constant included. A
	// detector that flagged only the tuple missing the constant would report
	// [6] and [7] here.
	r := fixture.Cust()
	for _, tc := range []struct {
		lhs, pattern []string
		rhs          string
		want         []int
	}{
		// t7 has CC=44 but CT=MH; t5 and t6 carry EDI.
		{[]string{"CC"}, []string{"44"}, "EDI", []int{4, 5, 6}},
		// t8 has AC=131 but CT=UN; t5 and t6 carry EDI.
		{[]string{"AC"}, []string{"131"}, "EDI", []int{4, 5, 7}},
	} {
		c := mk(t, r, tc.lhs, tc.pattern, "CT", tc.rhs)
		if v := core.Violations(r, c); !slices.Equal(v, tc.want) {
			t.Errorf("%s: violations = %v, want %v", c.Format(r), v, tc.want)
		}
		if core.Satisfies(r, c) {
			t.Errorf("%s should not be satisfied", c.Format(r))
		}
	}
}
