package cfd_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/cfd"
)

// randomCFDs returns n seeded random rules over attributes A0..A12 — names
// and constants whose string order differs from their numeric order — with
// the LHS listed in random order and about a third of the rules an earlier
// one listed differently, so equal-keyed rules can be told apart.
func randomCFDs(rng *rand.Rand, n int) []cfd.CFD {
	values := []string{cfd.Wildcard, "0", "1", "2", "9", "10", "11", "100", "a b", "x,y"}
	shuffle := func(c cfd.CFD) cfd.CFD {
		out := cfd.CFD{RHS: c.RHS, RHSPattern: c.RHSPattern}
		for _, i := range rng.Perm(len(c.LHS)) {
			out.LHS = append(out.LHS, c.LHS[i])
			out.LHSPattern = append(out.LHSPattern, c.LHSPattern[i])
		}
		return out
	}
	out := make([]cfd.CFD, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Intn(3) == 0 {
			out = append(out, shuffle(out[rng.Intn(i)]))
			continue
		}
		rhs := rng.Intn(13)
		c := cfd.CFD{RHS: fmt.Sprintf("A%d", rhs), RHSPattern: values[rng.Intn(len(values))]}
		for a := 0; a < 13; a++ {
			if a != rhs && rng.Intn(4) == 0 {
				c.LHS = append(c.LHS, fmt.Sprintf("A%d", a))
				c.LHSPattern = append(c.LHSPattern, values[rng.Intn(len(values))])
			}
		}
		out = append(out, shuffle(c))
	}
	return out
}

func texts(cfds []cfd.CFD) []string {
	out := make([]string, len(cfds))
	for i, c := range cfds {
		out[i] = c.String()
	}
	return out
}

// TestSortCFDsMatchesPerComparisonOrder pins the canonical order of rule
// files: SortCFDs, which renders every rule's key once, must produce the very
// permutation of the comparator it replaced, which normalized and rendered
// two rules per comparison — rules that differ only in how their LHS is
// listed included.
func TestSortCFDsMatchesPerComparisonOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := randomCFDs(rng, 1+rng.Intn(400))
		want := slices.Clone(got)
		sort.Slice(want, func(i, j int) bool {
			return want[i].Normalize().String() < want[j].Normalize().String()
		})
		cfd.SortCFDs(got)
		if !slices.Equal(texts(got), texts(want)) {
			t.Fatalf("seed %d: keyed sort and per-comparison sort disagree", seed)
		}
	}
}
