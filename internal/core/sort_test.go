package core_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

// randomRules returns n seeded random CFDs over 13 attributes — indexes past
// 9, multi-digit and wildcard codes, so the string order of the keys differs
// from the numeric order of the fields — about a third of them copies of an
// earlier rule. Entry 13 of every pattern lies outside every rule and holds
// the rule's position, which tells equal-keyed rules apart.
func randomRules(rng *rand.Rand, n int) []core.CFD {
	const arity, serial = 14, 13
	codes := []int32{core.Wildcard, 0, 1, 2, 9, 10, 11, 19, 20, 100, 101, 1234}
	out := make([]core.CFD, 0, n)
	for i := 0; i < n; i++ {
		var c core.CFD
		if i > 0 && rng.Intn(3) == 0 {
			c = out[rng.Intn(i)]
			c.Tp = c.Tp.Clone()
		} else {
			c = core.CFD{RHS: rng.Intn(serial), Tp: core.NewPattern(arity)}
			for a := 0; a < serial; a++ {
				if a != c.RHS && rng.Intn(4) == 0 {
					c.LHS = c.LHS.Add(a)
				}
			}
			c.Attrs().ForEach(func(a int) { c.Tp[a] = codes[rng.Intn(len(codes))] })
		}
		c.Tp[serial] = int32(i)
		out = append(out, c)
	}
	return out
}

func serials(cfds []core.CFD) []int32 {
	out := make([]int32, len(cfds))
	for i, c := range cfds {
		out[i] = c.Tp[len(c.Tp)-1]
	}
	return out
}

// TestSortCFDsMatchesPerComparisonOrder pins the canonical order of encoded
// rules: SortCFDs, which renders every key once, must produce the very
// permutation of the comparator it replaced, which rendered two keys per
// comparison — equal-keyed rules included.
func TestSortCFDsMatchesPerComparisonOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got := randomRules(rng, 1+rng.Intn(400))
		want := slices.Clone(got)
		sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
		core.SortCFDs(got)
		if !slices.Equal(serials(got), serials(want)) {
			t.Fatalf("seed %d: keyed sort and per-comparison sort disagree:\n got %v\nwant %v", seed, serials(got), serials(want))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key() < got[j].Key() }) {
			t.Fatalf("seed %d: not sorted by key", seed)
		}
	}
}

// TestSortByKeysKeepsPairs checks that items and keys travel together.
func TestSortByKeysKeepsPairs(t *testing.T) {
	items := []int{3, 1, 2, 1}
	keys := []string{"c", "a", "b", "a"}
	core.SortByKeys(items, keys)
	if !slices.Equal(items, []int{1, 1, 2, 3}) || !slices.Equal(keys, []string{"a", "a", "b", "c"}) {
		t.Errorf("got %v %v", items, keys)
	}
}

// TestSortIDs holds SortIDs to slices.Sort on distinct ids, dense and sparse,
// short and long, with one bitmap shared by every call; and it must refuse an
// id given twice.
func TestSortIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var marks []uint64
	for trial := range 200 {
		n, span := rng.Intn(3000), 1+rng.Intn(20000)
		if n > span {
			n = span
		}
		base := rng.Intn(1 << 20)
		ids := rng.Perm(span)[:n]
		if trial%4 == 0 { // sparse: far more bitmap words than ids
			for i := range ids {
				ids[i] *= 1000
			}
		}
		for i := range ids {
			ids[i] += base
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		core.SortIDs(ids, &marks)
		if !slices.Equal(ids, want) {
			t.Fatalf("trial %d: SortIDs of %d ids over a span of %d is not sorted", trial, n, span)
		}
		for _, w := range marks {
			if w != 0 {
				t.Fatalf("trial %d: SortIDs left a bitmap word set", trial)
			}
		}
	}
	twice := make([]int, 100)
	for i := range twice {
		twice[i] = i / 2
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SortIDs must refuse an id given twice")
		}
	}()
	core.SortIDs(twice, &marks)
}
