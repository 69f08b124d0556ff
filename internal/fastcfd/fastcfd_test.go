package fastcfd

import (
	"context"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/fixture"
)

// emitted runs the miner to completion and returns its rules in emission order.
func emitted(t testing.TB, r *core.Relation, opts Options) []core.CFD {
	t.Helper()
	return fixture.Emitted(t, func(emit func(core.CFD)) error {
		return MineContext(context.Background(), r, opts, emit)
	})
}

// mine runs the miner to completion and returns its cover in canonical order.
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

// smallRelations returns relations small enough for the brute-force oracle.
func smallRelations() map[string]*core.Relation {
	return map[string]*core.Relation{
		"custNoNM": fixture.CustNoNM(),
		"random1":  fixture.Random(21, 40, []int{2, 3, 2, 4}),
		"random2":  fixture.Random(33, 60, []int{3, 2, 3, 2}),
		"corr":     fixture.RandomCorrelated(9, 60, 4, 4),
	}
}

// TestMineMatchesBruteForce compares FastCFD (closed backend, with and without
// the CFDMiner optimisation) and NaiveFast against the exhaustive oracle.
func TestMineMatchesBruteForce(t *testing.T) {
	for name, r := range smallRelations() {
		for _, k := range []int{1, 2, 3} {
			want := bruteforce.Mine(r, k)
			variants := map[string][]core.CFD{
				"fastcfd":          mine(t, r, Options{K: k, UseCFDMiner: true}),
				"fastcfd-nofilter": mine(t, r, Options{K: k, UseCFDMiner: false}),
				"naivefast":        mine(t, r, Options{K: k, Computer: diffset.NewNaive(r)}),
				"naive+miner":      mine(t, r, Options{K: k, Computer: diffset.NewNaive(r), UseCFDMiner: true}),
			}
			for vname, got := range variants {
				if len(got) != len(want) {
					t.Errorf("%s k=%d %s: got %d CFDs, want %d", name, k, vname, len(got), len(want))
				}
				diffReport(t, r, name+"/"+vname, got, want)
			}
		}
	}
}

// TestMineCustPaperFacts checks the CFDs the paper names on the Fig. 1 relation.
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

	got2 := keys(mine(t, r, Options{K: 2, UseCFDMiner: true}))
	got3 := keys(mine(t, r, Options{K: 3, UseCFDMiner: true}))

	f1 := mk([]string{"CC", "AC"}, []string{"_", "_"}, "CT", "_")
	f2 := mk([]string{"CC", "AC", "PN"}, []string{"_", "_", "_"}, "STR", "_")
	phi0 := mk([]string{"CC", "ZIP"}, []string{"44", "_"}, "STR", "_")
	phi2 := mk([]string{"CC", "AC"}, []string{"44", "131"}, "CT", "EDI")
	ac908 := mk([]string{"AC"}, []string{"908"}, "CT", "MH")
	phi1 := mk([]string{"CC", "AC"}, []string{"01", "908"}, "CT", "MH")
	phi3 := mk([]string{"CC", "AC"}, []string{"01", "212"}, "CT", "NYC")
	ccAcStr44 := mk([]string{"CC", "AC"}, []string{"44", "_"}, "STR", "_")

	for name, c := range map[string]core.CFD{"f1": f1, "f2": f2, "phi0": phi0, "(AC->CT,908||MH)": ac908, "([CC,AC]->STR,(44,_))": ccAcStr44} {
		if !got3[c.Key()] {
			t.Errorf("k=3: %s missing: %s", name, c.Format(r))
		}
	}
	if !got2[phi2.Key()] {
		t.Errorf("k=2: phi2 missing")
	}
	if got3[phi2.Key()] {
		t.Errorf("k=3: phi2 is only 2-frequent and must not appear")
	}
	if got2[phi1.Key()] || got2[phi3.Key()] || got3[phi1.Key()] || got3[phi3.Key()] {
		t.Error("phi1/phi3 are not minimal and must never appear")
	}
}

// TestMineOutputInvariants validates that everything reported is a minimal,
// k-frequent CFD.
func TestMineOutputInvariants(t *testing.T) {
	r := fixture.Cust()
	for _, k := range []int{2, 3} {
		for _, c := range mine(t, r, Options{K: k, UseCFDMiner: true}) {
			if !core.IsMinimal(r, c) {
				t.Errorf("k=%d: non-minimal CFD: %s", k, c.Format(r))
			}
			if core.Support(r, c) < k {
				t.Errorf("k=%d: infrequent CFD: %s (support %d)", k, c.Format(r), core.Support(r, c))
			}
			if c.IsTrivial() {
				t.Errorf("k=%d: trivial CFD: %s", k, c.Format(r))
			}
		}
	}
}

// TestMineBackendsAgree verifies FastCFD and NaiveFast produce identical covers
// on the full cust relation (where brute force over variable CFDs would be
// slower), for several thresholds.
func TestMineBackendsAgree(t *testing.T) {
	r := fixture.Cust()
	for _, k := range []int{1, 2, 3, 4} {
		a := mine(t, r, Options{K: k, UseCFDMiner: true})
		b := mine(t, r, Options{K: k, Computer: diffset.NewNaive(r)})
		c := mine(t, r, Options{K: k, UseCFDMiner: false})
		if len(a) != len(b) || len(a) != len(c) {
			t.Errorf("k=%d: sizes differ: closed=%d naive=%d nofilter=%d", k, len(a), len(b), len(c))
		}
		diffReport(t, r, "closed-vs-naive", a, b)
		diffReport(t, r, "closed-vs-nofilter", a, c)
	}
}

func TestMineVariableOnly(t *testing.T) {
	r := fixture.Cust()
	got := mine(t, r, Options{K: 2, VariableOnly: true})
	if len(got) == 0 {
		t.Fatal("expected variable CFDs")
	}
	for _, c := range got {
		if !c.IsVariable() {
			t.Errorf("VariableOnly emitted a constant-RHS CFD: %s", c.Format(r))
		}
	}
}

func TestMineMaxLHS(t *testing.T) {
	r := fixture.Cust()
	got := mine(t, r, Options{K: 2, MaxLHS: 2, UseCFDMiner: true})
	if len(got) == 0 {
		t.Fatal("expected CFDs")
	}
	for _, c := range got {
		if c.LHS.Len() > 2 {
			t.Errorf("MaxLHS=2 violated: %s", c.Format(r))
		}
	}
	// Every CFD with a small LHS from the unrestricted run must still be found.
	full := mine(t, r, Options{K: 2, UseCFDMiner: true})
	gk := keys(got)
	for _, c := range full {
		if c.LHS.Len() <= 2 && !gk[c.Key()] {
			t.Errorf("MaxLHS=2 lost a small CFD: %s", c.Format(r))
		}
	}
}

// TestMineParallelMatchesSequential verifies that the concurrent per-attribute
// search emits exactly the sequential run's rules, in its order.
func TestMineParallelMatchesSequential(t *testing.T) {
	rels := map[string]*core.Relation{
		"cust": fixture.Cust(),
		"corr": fixture.RandomCorrelated(17, 300, 6, 6),
	}
	for name, r := range rels {
		for _, k := range []int{2, 5} {
			seq := emitted(t, r, Options{K: k, UseCFDMiner: true, Workers: 1})
			for _, workers := range []int{2, 4, 8} {
				par := emitted(t, r, Options{K: k, UseCFDMiner: true, Workers: workers})
				if len(seq) != len(par) {
					t.Errorf("%s k=%d: sequential %d CFDs, %d workers %d", name, k, len(seq), workers, len(par))
					continue
				}
				for i := range seq {
					if seq[i].Key() != par[i].Key() {
						t.Errorf("%s k=%d: CFD %d differs between 1 and %d workers", name, k, i, workers)
						break
					}
				}
			}
		}
	}
}

func TestMineEmptyAndTinyRelations(t *testing.T) {
	r := core.NewRelation(core.MustSchema("A", "B"))
	if got := mine(t, r, Options{K: 1, UseCFDMiner: true}); len(got) != 0 {
		t.Errorf("empty relation should yield no CFDs, got %d", len(got))
	}
	if err := r.AppendRow([]string{"1", "x"}); err != nil {
		t.Fatal(err)
	}
	got := mine(t, r, Options{K: 1, UseCFDMiner: true})
	// A single tuple satisfies every CFD; the minimal ones are the constant
	// CFDs with empty LHS and the corresponding variable ones.
	for _, c := range got {
		if !core.IsMinimal(r, c) {
			t.Errorf("single-tuple relation: non-minimal %s", c.Format(r))
		}
	}
	want := bruteforce.Mine(r, 1)
	if len(got) != len(want) {
		t.Errorf("single-tuple relation: got %d CFDs, brute force %d", len(got), len(want))
	}
}
