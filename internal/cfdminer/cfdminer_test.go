package cfdminer

import (
	"context"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/itemset"
)

func mkConstant(t *testing.T, r *core.Relation, lhs []string, lhsVals []string, rhs, rhsVal string) core.CFD {
	t.Helper()
	s := r.Schema()
	X, err := s.AttrSetOf(lhs...)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := s.Index(rhs)
	if !ok {
		t.Fatalf("unknown attribute %q", rhs)
	}
	tp := core.NewPattern(s.Arity())
	for i, name := range lhs {
		idx, _ := s.Index(name)
		v, ok := r.Dict(idx).Lookup(lhsVals[i])
		if !ok {
			t.Fatalf("value %q not in %s", lhsVals[i], name)
		}
		tp[idx] = v
	}
	v, ok := r.Dict(a).Lookup(rhsVal)
	if !ok {
		t.Fatalf("value %q not in %s", rhsVal, rhs)
	}
	tp[a] = v
	return core.CFD{LHS: X, RHS: a, Tp: tp}
}

// mine runs CFDMiner to completion and returns its cover in canonical order.
func mine(t testing.TB, r *core.Relation, opts Options) []core.CFD {
	t.Helper()
	return fixture.Cover(t, func(emit func(core.CFD)) error {
		return MineContext(context.Background(), r, opts, emit)
	})
}

func keys(cfds []core.CFD) map[string]bool {
	m := make(map[string]bool, len(cfds))
	for _, c := range cfds {
		m[c.Key()] = true
	}
	return m
}

// TestMineCustPaperFacts checks the constant CFDs named by the paper on the
// Fig. 1 relation.
func TestMineCustPaperFacts(t *testing.T) {
	r := fixture.Cust()

	// k = 2: phi2 = ([CC,AC] -> CT, (44,131 || EDI)) is a minimal 2-frequent
	// constant CFD (Example 5); phi1 and phi3 are not minimal.
	got2 := keys(mine(t, r, Options{K: 2}))
	phi2 := mkConstant(t, r, []string{"CC", "AC"}, []string{"44", "131"}, "CT", "EDI")
	if !got2[phi2.Key()] {
		t.Errorf("k=2: phi2 missing: %s", phi2.Format(r))
	}
	phi1 := mkConstant(t, r, []string{"CC", "AC"}, []string{"01", "908"}, "CT", "MH")
	phi3 := mkConstant(t, r, []string{"CC", "AC"}, []string{"01", "212"}, "CT", "NYC")
	if got2[phi1.Key()] || got2[phi3.Key()] {
		t.Error("k=2: phi1/phi3 must not be reported (not left-reduced)")
	}
	// (AC -> CT, (908 || MH)) is 4-frequent and left-reduced (Example 7).
	ac908 := mkConstant(t, r, []string{"AC"}, []string{"908"}, "CT", "MH")
	got4 := keys(mine(t, r, Options{K: 4}))
	if !got4[ac908.Key()] {
		t.Errorf("k=4: (AC -> CT, (908||MH)) missing")
	}
	// With k = 3 the 2-frequent phi2 must not appear.
	got3 := keys(mine(t, r, Options{K: 3}))
	if got3[phi2.Key()] {
		t.Error("k=3: phi2 has support 2 and must not be reported")
	}
	// Example 8: (ZIP -> CC, (07974 || 01)) and (ZIP -> AC, (07974 || 908)) are
	// valid 3-frequent constant CFDs; both are left-reduced since no attribute
	// is constant on the whole relation.
	zipCC := mkConstant(t, r, []string{"ZIP"}, []string{"07974"}, "CC", "01")
	zipAC := mkConstant(t, r, []string{"ZIP"}, []string{"07974"}, "AC", "908")
	if !got3[zipCC.Key()] || !got3[zipAC.Key()] {
		t.Error("k=3: expected (ZIP -> CC, (07974||01)) and (ZIP -> AC, (07974||908))")
	}
}

// TestMineMatchesBruteForce compares CFDMiner's output with the exhaustive
// oracle across relations and thresholds.
func TestMineMatchesBruteForce(t *testing.T) {
	rels := map[string]*core.Relation{
		"cust":     fixture.Cust(),
		"custNoNM": fixture.CustNoNM(),
		"random":   fixture.Random(21, 40, []int{2, 3, 2, 4}),
		"corr":     fixture.RandomCorrelated(9, 60, 4, 4),
	}
	for name, r := range rels {
		for _, k := range []int{1, 2, 3} {
			got := mine(t, r, Options{K: k})
			want := bruteforce.MineConstant(r, k)
			gk, wk := keys(got), keys(want)
			for key := range wk {
				if !gk[key] {
					t.Errorf("%s k=%d: CFDMiner missed a minimal constant CFD with key %s", name, k, key)
				}
			}
			for _, c := range got {
				if !wk[c.Key()] {
					t.Errorf("%s k=%d: CFDMiner produced a non-minimal or infrequent CFD: %s", name, k, c.Format(r))
				}
			}
		}
	}
}

// TestMineOutputsAreMinimalConstantCFDs validates output invariants directly.
func TestMineOutputsAreMinimalConstantCFDs(t *testing.T) {
	r := fixture.Cust()
	for _, k := range []int{1, 2, 3, 4} {
		for _, c := range mine(t, r, Options{K: k}) {
			if !c.IsConstant() {
				t.Errorf("k=%d: non-constant CFD emitted: %s", k, c.Format(r))
			}
			if !core.IsMinimal(r, c) {
				t.Errorf("k=%d: non-minimal CFD emitted: %s", k, c.Format(r))
			}
			if core.Support(r, c) < k {
				t.Errorf("k=%d: infrequent CFD emitted: %s (support %d)", k, c.Format(r), core.Support(r, c))
			}
		}
	}
}

// TestMineFromItemsetsSharedMining verifies that reusing a mining result gives
// the same emitted sequence as mining from scratch, at one worker and at four.
func TestMineFromItemsetsSharedMining(t *testing.T) {
	r := fixture.Cust()
	m, err := itemset.MineContext(context.Background(), r, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := fixture.Emitted(t, func(emit func(core.CFD)) error {
		return MineContext(context.Background(), r, Options{K: 2, Workers: 1}, emit)
	})
	for _, workers := range []int{1, 4} {
		b := fixture.Emitted(t, func(emit func(core.CFD)) error {
			return MineFromItemsets(context.Background(), m, Options{Workers: workers}, emit)
		})
		if len(a) != len(b) {
			t.Fatalf("workers=%d: lengths differ: %d vs %d", workers, len(a), len(b))
		}
		for i := range a {
			if a[i].Key() != b[i].Key() {
				t.Errorf("workers=%d: CFD %d differs: %s vs %s", workers, i, a[i].Format(r), b[i].Format(r))
			}
		}
	}
}

// TestMineConstantAttribute covers the empty-LHS case: an attribute constant
// across the relation yields the CFD (∅ -> A, (|| a)).
func TestMineConstantAttribute(t *testing.T) {
	r := core.NewRelation(core.MustSchema("A", "B"))
	for _, row := range [][]string{{"1", "x"}, {"2", "x"}, {"3", "x"}} {
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	got := mine(t, r, Options{K: 1})
	if len(got) != 1 {
		t.Fatalf("expected exactly one constant CFD, got %d", len(got))
	}
	c := got[0]
	if c.LHS != core.EmptyAttrSet || c.RHS != 1 {
		t.Errorf("unexpected CFD: %s", c.Format(r))
	}
	if r.Dict(1).Value(c.Tp[1]) != "x" {
		t.Errorf("wrong RHS constant: %s", c.Format(r))
	}
}
