package ctane

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/fastcfd"
	"repro/internal/fixture"
)

// mine runs CTANE to completion and returns its cover in canonical order.
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

func diffReport(t *testing.T, r *core.Relation, name string, got, want []core.CFD) {
	t.Helper()
	gk, wk := keys(got), keys(want)
	for _, c := range want {
		if !gk[c.Key()] {
			t.Errorf("%s: missing %s", name, c.Format(r))
		}
	}
	for _, c := range got {
		if !wk[c.Key()] {
			t.Errorf("%s: spurious %s", name, c.Format(r))
		}
	}
}

// TestMineMatchesBruteForce compares CTANE against the exhaustive oracle on
// relations small enough to enumerate.
func TestMineMatchesBruteForce(t *testing.T) {
	rels := map[string]*core.Relation{
		"custNoNM": fixture.CustNoNM(),
		"random1":  fixture.Random(21, 40, []int{2, 3, 2, 4}),
		"random2":  fixture.Random(33, 60, []int{3, 2, 3, 2}),
		"corr":     fixture.RandomCorrelated(9, 60, 4, 4),
	}
	for name, r := range rels {
		for _, k := range []int{1, 2, 3} {
			got := mine(t, r, Options{K: k})
			want := bruteforce.Mine(r, k)
			if len(got) != len(want) {
				t.Errorf("%s k=%d: CTANE found %d CFDs, brute force %d", name, k, len(got), len(want))
			}
			diffReport(t, r, name, got, want)
		}
	}
}

// TestMineMatchesFastCFD cross-validates CTANE and FastCFD on the full cust
// relation for several thresholds.
func TestMineMatchesFastCFD(t *testing.T) {
	r := fixture.Cust()
	for _, k := range []int{1, 2, 3, 4} {
		got := mine(t, r, Options{K: k})
		want := fixture.Cover(t, func(emit func(core.CFD)) error {
			return fastcfd.MineContext(context.Background(), r, fastcfd.Options{K: k, UseCFDMiner: true}, emit)
		})
		if len(got) != len(want) {
			t.Errorf("k=%d: CTANE %d CFDs, FastCFD %d", k, len(got), len(want))
		}
		diffReport(t, r, "cust", got, want)
	}
}

// TestMineCustPaperFacts checks the CFDs named by the paper, including the
// level-2 discoveries of Example 8.
func TestMineCustPaperFacts(t *testing.T) {
	r := fixture.Cust()
	mk := func(lhs []string, vals []string, rhs, rhsVal string) core.CFD {
		s := r.Schema()
		X, err := s.AttrSetOf(lhs...)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := s.Index(rhs)
		tp := core.NewPattern(s.Arity())
		for i, nm := range lhs {
			idx, _ := s.Index(nm)
			if vals[i] != "_" {
				v, ok := r.Dict(idx).Lookup(vals[i])
				if !ok {
					t.Fatalf("value %q not in %s", vals[i], nm)
				}
				tp[idx] = v
			}
		}
		if rhsVal != "_" {
			v, ok := r.Dict(a).Lookup(rhsVal)
			if !ok {
				t.Fatalf("value %q not in %s", rhsVal, rhs)
			}
			tp[a] = v
		}
		return core.CFD{LHS: X, RHS: a, Tp: tp}
	}

	got3 := keys(mine(t, r, Options{K: 3}))
	// Example 8 (level-2 discoveries with k = 3): the constant CFDs
	// (ZIP -> CC, (07974||01)) and (ZIP -> AC, (07974||908)) and the variable
	// CFDs (ZIP -> CC, (07974||_)), (ZIP -> AC, (07974||_)), (STR -> ZIP, (_||_)).
	expect := map[string]core.CFD{
		"(ZIP->CC,(07974||01))":   mk([]string{"ZIP"}, []string{"07974"}, "CC", "01"),
		"(ZIP->CC,(07974||_))":    mk([]string{"ZIP"}, []string{"07974"}, "CC", "_"),
		"(ZIP->AC,(07974||908))":  mk([]string{"ZIP"}, []string{"07974"}, "AC", "908"),
		"(ZIP->AC,(07974||_))":    mk([]string{"ZIP"}, []string{"07974"}, "AC", "_"),
		"(STR->ZIP,(_||_))":       mk([]string{"STR"}, []string{"_"}, "ZIP", "_"),
		"f1":                      mk([]string{"CC", "AC"}, []string{"_", "_"}, "CT", "_"),
		"f2":                      mk([]string{"CC", "AC", "PN"}, []string{"_", "_", "_"}, "STR", "_"),
		"phi0":                    mk([]string{"CC", "ZIP"}, []string{"44", "_"}, "STR", "_"),
		"([CC,AC]->ZIP,(_,_||_))": mk([]string{"CC", "AC"}, []string{"_", "_"}, "ZIP", "_"),
	}
	for name, c := range expect {
		if !got3[c.Key()] {
			t.Errorf("k=3: %s missing: %s", name, c.Format(r))
		}
	}
	// Example 8 (F): ([CC,AC] -> ZIP, (_,_||07974)) does not hold and must not appear.
	bad := mk([]string{"CC", "AC"}, []string{"_", "_"}, "ZIP", "07974")
	if got3[bad.Key()] {
		t.Errorf("([CC,AC] -> ZIP, (_,_||07974)) must not be reported")
	}
	// phi1 and phi3 are not minimal and must not appear at any threshold.
	got2 := keys(mine(t, r, Options{K: 2}))
	phi1 := mk([]string{"CC", "AC"}, []string{"01", "908"}, "CT", "MH")
	phi3 := mk([]string{"CC", "AC"}, []string{"01", "212"}, "CT", "NYC")
	if got2[phi1.Key()] || got2[phi3.Key()] {
		t.Error("phi1/phi3 must not be reported by CTANE")
	}
}

// TestMineOutputInvariants validates that every reported CFD is minimal and
// k-frequent.
func TestMineOutputInvariants(t *testing.T) {
	r := fixture.Cust()
	for _, k := range []int{2, 3, 4} {
		for _, c := range mine(t, r, Options{K: k}) {
			if !core.IsMinimal(r, c) {
				t.Errorf("k=%d: non-minimal CFD: %s", k, c.Format(r))
			}
			if core.Support(r, c) < k {
				t.Errorf("k=%d: infrequent CFD: %s (support %d)", k, c.Format(r), core.Support(r, c))
			}
		}
	}
}

func TestMineMaxLHS(t *testing.T) {
	r := fixture.Cust()
	got := mine(t, r, Options{K: 2, MaxLHS: 1})
	if len(got) == 0 {
		t.Fatal("expected CFDs with single-attribute LHS")
	}
	for _, c := range got {
		if c.LHS.Len() > 1 {
			t.Errorf("MaxLHS=1 violated: %s", c.Format(r))
		}
	}
	full := keys(mine(t, r, Options{K: 2}))
	for _, c := range got {
		if !full[c.Key()] {
			t.Errorf("MaxLHS run produced a CFD absent from the full run: %s", c.Format(r))
		}
	}
}

func TestMineDegenerateInputs(t *testing.T) {
	empty := core.NewRelation(core.MustSchema("A", "B"))
	if got := mine(t, empty, Options{K: 1}); len(got) != 0 {
		t.Errorf("empty relation: got %d CFDs", len(got))
	}
	r := fixture.Cust()
	if got := mine(t, r, Options{K: 100}); len(got) != 0 {
		t.Errorf("k > |r|: got %d CFDs", len(got))
	}
}

// TestMineFDsDegenerateInputs checks that MineFDs, unlike MineContext, has no
// support gate: on an empty relation every attribute is constant, so it
// emits ∅ → A and ∅ → B, where MineContext at k = 1 emits nothing.
func TestMineFDsDegenerateInputs(t *testing.T) {
	empty := core.NewRelation(core.MustSchema("A", "B"))
	got := fixture.Emitted(t, func(emit func(core.CFD)) error {
		return MineFDs(context.Background(), empty, emit)
	})
	want := []core.CFD{
		{LHS: core.EmptyAttrSet, RHS: 0, Tp: core.NewPattern(2)},
		{LHS: core.EmptyAttrSet, RHS: 1, Tp: core.NewPattern(2)},
	}
	if len(got) != len(want) {
		t.Fatalf("empty relation: MineFDs emitted %d FDs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key() != want[i].Key() {
			t.Errorf("empty relation: FD %d is %s, want %s", i, got[i].Format(empty), want[i].Format(empty))
		}
	}
	if got := mine(t, empty, Options{K: 1}); len(got) != 0 {
		t.Errorf("empty relation: MineContext at k = 1 emitted %d CFDs", len(got))
	}
}

// TestMineFDsCancelled cancels MineFDs at each of the context checks a
// complete run on cust makes, in turn: a run cut short returns
// context.Canceled and emits nothing, as the FDs are emitted only once the
// traversal is done.
func TestMineFDsCancelled(t *testing.T) {
	r := fixture.Cust()
	for n := int64(1); n < 100000; n++ {
		emits := 0
		err := MineFDs(fixture.NewCountingContext(n), r, func(core.CFD) { emits++ })
		if err == nil {
			if n == 1 || emits == 0 {
				t.Fatalf("a run of %d checks emitted %d FDs", n-1, emits)
			}
			return
		}
		if !errors.Is(err, context.Canceled) || emits != 0 {
			t.Fatalf("cancelled at check %d: err = %v after %d FDs", n, err, emits)
		}
	}
	t.Fatal("no run completed")
}
