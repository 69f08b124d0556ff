package fastfd

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/fixture"
	"repro/internal/tane"
)

// mine runs FastFD to completion and returns its cover in canonical order.
func mine(t testing.TB, r *core.Relation, comp diffset.Computer) []core.CFD {
	t.Helper()
	return fixture.Cover(t, func(emit func(core.CFD)) error {
		return MineContext(context.Background(), r, comp, emit)
	})
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

// TestMineMatchesTANE cross-validates FastFD against TANE (which is itself
// validated against brute force) on several relations, with both difference-set
// backends.
func TestMineMatchesTANE(t *testing.T) {
	rels := map[string]*core.Relation{
		"cust":    fixture.Cust(),
		"random1": fixture.Random(5, 60, []int{2, 3, 4, 2}),
		"random2": fixture.Random(9, 90, []int{3, 3, 2, 2, 4}),
		"corr":    fixture.RandomCorrelated(2, 80, 5, 4),
	}
	for name, r := range rels {
		want := fixture.Cover(t, func(emit func(core.CFD)) error {
			return tane.MineContext(context.Background(), r, emit)
		})
		gotClosed := mine(t, r, diffset.NewClosed(r))
		gotNaive := mine(t, r, diffset.NewNaive(r))
		if !sameCFDs(gotClosed, want) {
			t.Errorf("%s: FastFD(closed) found %d FDs, TANE %d", name, len(gotClosed), len(want))
		}
		if !sameCFDs(gotNaive, want) {
			t.Errorf("%s: FastFD(naive) found %d FDs, TANE %d", name, len(gotNaive), len(want))
		}
	}
}

func TestMineDefaultsToClosedBackend(t *testing.T) {
	r := fixture.Cust()
	if !sameCFDs(mine(t, r, nil), mine(t, r, diffset.NewClosed(r))) {
		t.Error("nil backend should behave like the closed backend")
	}
}

func TestMineConstantAttribute(t *testing.T) {
	r := core.NewRelation(core.MustSchema("A", "B"))
	for _, row := range [][]string{{"1", "x"}, {"2", "x"}, {"1", "x"}} {
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	got := mine(t, r, nil)
	foundEmptyLHS := false
	for _, c := range got {
		if c.LHS == core.EmptyAttrSet && c.RHS == 1 {
			foundEmptyLHS = true
		}
	}
	if !foundEmptyLHS {
		t.Error("constant attribute should yield the FD with an empty LHS")
	}
}

func TestMinimalCovers(t *testing.T) {
	// Difference sets {{0},{1,2}} over candidates {0,1,2}: minimal covers are
	// {0,1} and {0,2}.
	diffs := []core.AttrSet{core.NewAttrSet(0), core.NewAttrSet(1, 2)}
	covers := MinimalCovers(diffs, []int{0, 1, 2})
	if len(covers) != 2 {
		t.Fatalf("got %d covers: %v", len(covers), covers)
	}
	want := map[core.AttrSet]bool{core.NewAttrSet(0, 1): true, core.NewAttrSet(0, 2): true}
	for _, c := range covers {
		if !want[c] {
			t.Errorf("unexpected cover %v", c)
		}
	}
	// A single difference set: each of its attributes alone is a minimal cover.
	covers = MinimalCovers([]core.AttrSet{core.NewAttrSet(1, 3)}, []int{0, 1, 2, 3})
	if len(covers) != 2 {
		t.Errorf("single diffset: got %v", covers)
	}
	// Unsatisfiable: a difference set disjoint from the candidates.
	covers = MinimalCovers([]core.AttrSet{core.NewAttrSet(5)}, []int{0, 1})
	if len(covers) != 0 {
		t.Errorf("expected no covers, got %v", covers)
	}
}

// TestMinimalCoversAgainstBruteForce verifies cover enumeration against a
// subset-enumeration oracle on random difference-set collections.
func TestMinimalCoversAgainstBruteForce(t *testing.T) {
	cases := [][]core.AttrSet{
		{core.NewAttrSet(0, 1), core.NewAttrSet(1, 2), core.NewAttrSet(2, 3)},
		{core.NewAttrSet(0), core.NewAttrSet(1), core.NewAttrSet(2)},
		{core.NewAttrSet(0, 1, 2), core.NewAttrSet(2, 3), core.NewAttrSet(0, 3)},
		{core.NewAttrSet(1, 2, 3)},
	}
	candidates := []int{0, 1, 2, 3}
	space := core.NewAttrSet(candidates...)
	for ci, diffs := range cases {
		want := make(map[core.AttrSet]bool)
		space.Subsets(func(y core.AttrSet) bool {
			if diffset.IsMinimalCover(y, diffs) {
				want[y] = true
			}
			return true
		})
		got := MinimalCovers(diffs, candidates)
		if len(got) != len(want) {
			t.Errorf("case %d: got %d covers, want %d", ci, len(got), len(want))
		}
		for _, y := range got {
			if !want[y] {
				t.Errorf("case %d: spurious cover %v", ci, y)
			}
		}
	}
}
