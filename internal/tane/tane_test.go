package tane

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// mine runs TANE to completion and returns its cover in canonical order.
func mine(t testing.TB, r *core.Relation) []core.CFD {
	t.Helper()
	return fixture.Cover(t, func(emit func(core.CFD)) error {
		return MineContext(context.Background(), r, emit)
	})
}

// bruteForceFDs returns every minimal FD of r by exhaustive enumeration.
func bruteForceFDs(r *core.Relation) []core.CFD {
	arity := r.Arity()
	all := r.Schema().All()
	wild := core.NewPattern(arity)
	var out []core.CFD
	for rhs := 0; rhs < arity; rhs++ {
		all.Remove(rhs).Subsets(func(X core.AttrSet) bool {
			c := core.CFD{LHS: X, RHS: rhs, Tp: wild}
			if !core.Satisfies(r, c) {
				return true
			}
			minimal := true
			X.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
				if core.Satisfies(r, core.CFD{LHS: sub, RHS: rhs, Tp: wild}) {
					minimal = false
					return false
				}
				return true
			})
			if minimal {
				out = append(out, c)
			}
			return true
		})
	}
	core.SortCFDs(out)
	return out
}

func sameCFDs(a, b []core.CFD) bool {
	if len(a) != len(b) {
		return false
	}
	core.SortCFDs(a)
	core.SortCFDs(b)
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// TestMineCustKnownFDs checks the FDs quoted in the paper on the Fig. 1 relation.
func TestMineCustKnownFDs(t *testing.T) {
	r := fixture.Cust()
	got := mine(t, r)
	index := make(map[string]bool, len(got))
	for _, c := range got {
		index[c.Key()] = true
	}
	lhsF1, _ := r.Schema().AttrSetOf("CC", "AC")
	ct, _ := r.Schema().Index("CT")
	f1 := core.CFD{LHS: lhsF1, RHS: ct, Tp: core.NewPattern(r.Arity())}
	if !index[f1.Key()] {
		t.Errorf("f1 = [CC,AC] -> CT missing from TANE output")
	}
	// f2 = [CC,AC,PN] -> STR is minimal on r0.
	lhsF2, _ := r.Schema().AttrSetOf("CC", "AC", "PN")
	str, _ := r.Schema().Index("STR")
	f2 := core.CFD{LHS: lhsF2, RHS: str, Tp: core.NewPattern(r.Arity())}
	if !index[f2.Key()] {
		t.Errorf("f2 = [CC,AC,PN] -> STR missing from TANE output")
	}
	// [CC,ZIP] -> STR does not hold and must not appear.
	lhsBad, _ := r.Schema().AttrSetOf("CC", "ZIP")
	bad := core.CFD{LHS: lhsBad, RHS: str, Tp: core.NewPattern(r.Arity())}
	if index[bad.Key()] {
		t.Errorf("[CC,ZIP] -> STR should not be reported")
	}
}

// TestMineMatchesBruteForce compares TANE against exhaustive enumeration on
// several small relations.
func TestMineMatchesBruteForce(t *testing.T) {
	rels := map[string]*core.Relation{
		"cust":     fixture.Cust(),
		"custNoNM": fixture.CustNoNM(),
		"random1":  fixture.Random(3, 50, []int{2, 3, 4, 2}),
		"random2":  fixture.Random(8, 80, []int{3, 3, 2, 2, 4}),
		"corr":     fixture.RandomCorrelated(12, 70, 5, 4),
		"constant": constantColumnRelation(),
	}
	for name, r := range rels {
		got := mine(t, r)
		want := bruteForceFDs(r)
		if !sameCFDs(got, want) {
			t.Errorf("%s: TANE found %d FDs, brute force %d", name, len(got), len(want))
			gk := map[string]bool{}
			for _, c := range got {
				gk[c.Key()] = true
			}
			for _, c := range want {
				if !gk[c.Key()] {
					t.Errorf("%s: missing %s", name, c.Format(r))
				}
			}
			wk := map[string]bool{}
			for _, c := range want {
				wk[c.Key()] = true
			}
			for _, c := range got {
				if !wk[c.Key()] {
					t.Errorf("%s: spurious %s", name, c.Format(r))
				}
			}
		}
	}
}

// TestMineOutputsAreMinimalFDs validates output invariants.
func TestMineOutputsAreMinimalFDs(t *testing.T) {
	r := fixture.RandomCorrelated(4, 90, 5, 5)
	for _, c := range mine(t, r) {
		if !c.IsVariable() || c.Tp.ConstAttrs(c.LHS).Len() != 0 {
			t.Errorf("TANE emitted a non-FD: %s", c.Format(r))
		}
		if !core.IsMinimal(r, c) {
			t.Errorf("TANE emitted a non-minimal FD: %s", c.Format(r))
		}
	}
}

func constantColumnRelation() *core.Relation {
	r := core.NewRelation(core.MustSchema("A", "B", "C"))
	rows := [][]string{{"1", "k", "x"}, {"2", "k", "y"}, {"3", "k", "x"}, {"1", "k", "x"}}
	for _, row := range rows {
		if err := r.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return r
}
