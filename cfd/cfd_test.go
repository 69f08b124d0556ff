package cfd_test

import (
	"strings"
	"testing"

	"repro/cfd"
	"repro/dataset"
)

func custRelation(t *testing.T) *cfd.Relation {
	t.Helper()
	return dataset.Cust()
}

func TestRelationBasics(t *testing.T) {
	r, err := cfd.NewRelation("A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Append("1", "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Append("2"); err == nil {
		t.Error("short row must be rejected")
	}
	if r.Size() != 1 || r.Arity() != 2 {
		t.Errorf("Size/Arity = %d/%d", r.Size(), r.Arity())
	}
	if got := r.Attributes(); got[0] != "A" || got[1] != "B" {
		t.Errorf("Attributes = %v", got)
	}
	if v, err := r.Value(0, "B"); err != nil || v != "x" {
		t.Errorf("Value = %q, %v", v, err)
	}
	if _, err := r.Value(0, "Z"); err == nil {
		t.Error("unknown attribute must error")
	}
	if d, err := r.DomainSize("A"); err != nil || d != 1 {
		t.Errorf("DomainSize = %d, %v", d, err)
	}
	if _, err := cfd.NewRelation("A", "A"); err == nil {
		t.Error("duplicate attributes must be rejected")
	}
}

func TestFromRowsProjectHead(t *testing.T) {
	r, err := cfd.FromRows([]string{"A", "B", "C"}, [][]string{
		{"1", "x", "p"}, {"2", "y", "q"}, {"3", "z", "p"},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Head(2)
	if h.Size() != 2 {
		t.Errorf("Head size = %d", h.Size())
	}
	p, err := r.Project("C", "A")
	if err != nil {
		t.Fatal(err)
	}
	if p.Arity() != 2 {
		t.Errorf("Project arity = %d", p.Arity())
	}
	if _, err := r.Project("missing"); err == nil {
		t.Error("projecting an unknown attribute must error")
	}
}

func TestCFDClassificationAndString(t *testing.T) {
	c := cfd.CFD{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"01", "908"}, RHSPattern: "MH"}
	if !c.IsConstant() || c.IsVariable() || c.IsFD() {
		t.Error("constant CFD misclassified")
	}
	v := cfd.NewFD([]string{"CC", "AC"}, "CT")
	if !v.IsVariable() || !v.IsFD() || v.IsConstant() {
		t.Error("FD misclassified")
	}
	mixed := cfd.CFD{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"_"}, RHSPattern: "MH"}
	if mixed.IsConstant() || mixed.IsVariable() {
		t.Error("mixed CFD misclassified")
	}
	want := "([CC,AC] -> CT, (01, 908 || MH))"
	if c.String() != want {
		t.Errorf("String = %q, want %q", c.String(), want)
	}
}

func TestCFDValidate(t *testing.T) {
	good := cfd.CFD{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "x"}
	if err := good.Validate(); err != nil {
		t.Errorf("valid CFD rejected: %v", err)
	}
	cases := []cfd.CFD{
		{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"_", "_"}, RHSPattern: "x"},
		{LHS: []string{"A"}, RHS: "", LHSPattern: []string{"_"}, RHSPattern: "x"},
		{LHS: []string{"A", "A"}, RHS: "B", LHSPattern: []string{"_", "_"}, RHSPattern: "x"},
		{LHS: []string{"B"}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "x"},
		{LHS: []string{""}, RHS: "B", LHSPattern: []string{"_"}, RHSPattern: "x"},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid CFD accepted: %v", i, c)
		}
	}
}

func TestNormalizeAndEqual(t *testing.T) {
	a := cfd.CFD{LHS: []string{"AC", "CC"}, RHS: "CT", LHSPattern: []string{"908", "01"}, RHSPattern: "MH"}
	b := cfd.CFD{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"01", "908"}, RHSPattern: "MH"}
	if !a.Equal(b) {
		t.Error("attribute order must not affect equality")
	}
	c := cfd.CFD{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"01", "212"}, RHSPattern: "MH"}
	if a.Equal(c) {
		t.Error("different patterns must not be equal")
	}
	n := a.Normalize()
	if n.LHS[0] != "AC" || n.LHSPattern[0] != "908" {
		t.Errorf("Normalize misaligned pattern: %v / %v", n.LHS, n.LHSPattern)
	}
	// Equal is the normalised comparison, without normalising: the same
	// verdict as comparing normalised renderings, on every pair.
	rules := []cfd.CFD{a, b, c,
		{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"908", "01"}, RHSPattern: "MH"}, // patterns swapped
		{LHS: []string{"AC", "CC"}, RHS: "CT", LHSPattern: []string{"908", "01"}, RHSPattern: "_"},
		{LHS: []string{"AC", "CC"}, RHS: "ZIP", LHSPattern: []string{"908", "01"}, RHSPattern: "MH"},
		{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"908"}, RHSPattern: "MH"},
		{LHS: []string{"AC", "PN", "CC"}, RHS: "CT", LHSPattern: []string{"908", "_", "01"}, RHSPattern: "MH"},
		{LHS: []string{"CC", "AC", "PN"}, RHS: "CT", LHSPattern: []string{"01", "908", "_"}, RHSPattern: "MH"},
	}
	for _, x := range rules {
		for _, y := range rules {
			if got, want := x.Equal(y), x.Normalize().String() == y.Normalize().String(); got != want {
				t.Errorf("%v.Equal(%v) = %v, want %v", x, y, got, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { a.Equal(b) }); allocs != 0 {
		t.Errorf("Equal allocates %.0f times, want 0", allocs)
	}
}

func TestSatisfactionOnCust(t *testing.T) {
	r := custRelation(t)
	f1 := cfd.NewFD([]string{"CC", "AC"}, "CT")
	ok, err := r.Satisfies(f1)
	if err != nil || !ok {
		t.Errorf("f1 should hold: %v %v", ok, err)
	}
	phi1 := cfd.CFD{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"01", "908"}, RHSPattern: "MH"}
	if sup, err := r.Support(phi1); err != nil || sup != 3 {
		t.Errorf("support of phi1 = %d, %v; want 3", sup, err)
	}
	if min, err := r.IsMinimal(phi1); err != nil || min {
		t.Errorf("phi1 should not be minimal (CC can be dropped): %v %v", min, err)
	}
	bad := cfd.NewFD([]string{"CC", "ZIP"}, "STR")
	ok, err = r.Satisfies(bad)
	if err != nil || ok {
		t.Errorf("[CC,ZIP] -> STR should not hold")
	}
	viol, err := r.Violations(bad)
	if err != nil || len(viol) == 0 {
		t.Errorf("expected violations, got %v, %v", viol, err)
	}
	// Unknown attribute and unknown constant produce errors.
	if _, err := r.Satisfies(cfd.NewFD([]string{"XX"}, "CT")); err == nil {
		t.Error("unknown attribute must error")
	}
	missing := cfd.CFD{LHS: []string{"CC"}, RHS: "CT", LHSPattern: []string{"99"}, RHSPattern: "_"}
	if _, err := r.Satisfies(missing); err == nil {
		t.Error("constant outside the active domain must error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := custRelation(t)
	orig := cfd.CFD{LHS: []string{"CC", "ZIP"}, RHS: "STR", LHSPattern: []string{"44", "_"}, RHSPattern: "_"}
	enc, err := cfd.Encode(r, orig)
	if err != nil {
		t.Fatal(err)
	}
	back := cfd.Decode(r, enc)
	if !back.Equal(orig) {
		t.Errorf("round trip changed the CFD: %s vs %s", back, orig)
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"([CC,AC] -> CT, (01, 908 || MH))",
		"([CC,ZIP] -> STR, (44, _ || _))",
		"([ZIP] -> CC, (07974 || 01))",
		"([] -> CC, ( || 01))",
	}
	for _, s := range cases {
		c, err := cfd.Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		back, err := cfd.Parse(c.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", c.String(), err)
			continue
		}
		if !c.Equal(back) {
			t.Errorf("round trip mismatch: %q vs %q", c, back)
		}
	}
	bad := []string{
		"",
		"[CC] -> CT, (01 || MH)",
		"([CC] -> CT)",
		"([CC] -> CT, (01, 02 || MH))",
		"([CC] -> CT, (01 | MH))",
		"([CC] -> CT, (01 || ))",
		"([CT] -> CT, (_ || _))",
	}
	for _, s := range bad {
		if _, err := cfd.Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestParseAllAndFormatAll(t *testing.T) {
	text := `
# discovered rules
([CC,AC] -> CT, (_, _ || _))
([ZIP] -> CC, (07974 || 01))
`
	rules, err := cfd.ParseAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	out := cfd.FormatAll(rules)
	if !strings.Contains(out, "([ZIP] -> CC, (07974 || 01))") {
		t.Errorf("FormatAll output missing rule: %q", out)
	}
	if _, err := cfd.ParseAll("([broken"); err == nil {
		t.Error("ParseAll must report parse errors with line numbers")
	}
}

func TestSortAndCount(t *testing.T) {
	cfds := []cfd.CFD{
		{LHS: []string{"ZIP"}, RHS: "CC", LHSPattern: []string{"07974"}, RHSPattern: "01"},
		cfd.NewFD([]string{"CC", "AC"}, "CT"),
		{LHS: []string{"AC"}, RHS: "CT", LHSPattern: []string{"908"}, RHSPattern: "MH"},
	}
	cfd.SortCFDs(cfds)
	for i := 1; i < len(cfds); i++ {
		if cfds[i-1].Normalize().String() > cfds[i].Normalize().String() {
			t.Error("SortCFDs did not sort")
		}
	}
	constant, variable := cfd.CountClasses(cfds)
	if constant != 2 || variable != 1 {
		t.Errorf("CountClasses = %d/%d, want 2/1", constant, variable)
	}
}

func TestTableaux(t *testing.T) {
	r := custRelation(t)
	cfds := []cfd.CFD{
		{LHS: []string{"CC", "AC"}, RHS: "CT", LHSPattern: []string{"01", "908"}, RHSPattern: "MH"},
		{LHS: []string{"AC", "CC"}, RHS: "CT", LHSPattern: []string{"131", "44"}, RHSPattern: "EDI"},
		cfd.NewFD([]string{"CC", "AC"}, "CT"),
		{LHS: []string{"ZIP"}, RHS: "CC", LHSPattern: []string{"07974"}, RHSPattern: "01"},
	}
	tableaux := cfd.BuildTableaux(cfds)
	if len(tableaux) != 2 {
		t.Fatalf("expected 2 tableaux, got %d", len(tableaux))
	}
	var ctTab cfd.TableauCFD
	for _, tb := range tableaux {
		if tb.RHS == "CT" {
			ctTab = tb
		}
	}
	if len(ctTab.Patterns) != 3 {
		t.Fatalf("CT tableau should have 3 pattern tuples, got %d", len(ctTab.Patterns))
	}
	if got := len(ctTab.CFDs()); got != 3 {
		t.Errorf("CFDs() returned %d", got)
	}
	// A tableau holds when every pattern tuple does (§2.3).
	for _, c := range ctTab.CFDs() {
		if ok, err := r.Satisfies(c); err != nil || !ok {
			t.Errorf("pattern %s of the tableau should be satisfied: %v %v", c, ok, err)
		}
	}
	// Tableau support is the minimum pattern support: phi2 has support 2.
	sup, err := r.TableauSupport(ctTab)
	if err != nil || sup != 2 {
		t.Errorf("tableau support = %d, %v; want 2", sup, err)
	}
	if s := ctTab.String(); !strings.Contains(s, "-> CT") {
		t.Errorf("tableau String malformed: %q", s)
	}
	if sup, _ := r.TableauSupport(cfd.TableauCFD{LHS: []string{"CC"}, RHS: "CT"}); sup != 0 {
		t.Errorf("empty tableau support = %d", sup)
	}
}
