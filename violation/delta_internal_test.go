package violation

import (
	"math/rand"
	"slices"
	"testing"

	"repro/cfd"
)

// TestPatchAndFoldMatchSetArithmetic holds patchSorted, and the fold by which
// mergeDeltas sums a span of commits, to plain set arithmetic: random sorted
// sets, each commit an edit anywhere in the set — at the front, in the
// middle, at the end, a whole run — and the span's merged edit must be the
// difference between its first and last state, for a rule's set and the
// dirty set alike.
func TestPatchAndFoldMatchSetArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rule := cfd.NewFD([]string{"A"}, "B")
	// diff returns the sorted edit from a to b.
	diff := func(a, b []int) (add, rem []int) {
		for _, x := range b {
			if _, ok := slices.BinarySearch(a, x); !ok {
				add = append(add, x)
			}
		}
		for _, x := range a {
			if _, ok := slices.BinarySearch(b, x); !ok {
				rem = append(rem, x)
			}
		}
		return add, rem
	}
	// next is a random successor of the sorted set s over the ids [0, 300).
	next := func(s []int) []int {
		in := make(map[int]bool, len(s))
		for _, x := range s {
			in[x] = true
		}
		switch lo, n := rng.Intn(300), 1+rng.Intn(40); rng.Intn(3) {
		case 0: // a run flips
			for x := lo; x < min(lo+n, 300); x++ {
				in[x] = !in[x]
			}
		case 1: // scattered flips
			for ; n > 0; n-- {
				x := rng.Intn(300)
				in[x] = !in[x]
			}
		default: // the tail grows or shrinks
			for x := 300 - n; x < 300; x++ {
				in[x] = rng.Intn(2) == 0
			}
		}
		var out []int
		for x := 0; x < 300; x++ {
			if in[x] {
				out = append(out, x)
			}
		}
		return out
	}
	for trial := 0; trial < 400; trial++ {
		first := next(nil)
		state := first
		var ds []*Delta
		commits := 2 + rng.Intn(6)
		if trial%100 == 0 {
			commits = 1000 // a span as long as the delta history
		}
		for c := 0; c < commits; c++ {
			to := next(state)
			add, rem := diff(state, to)
			if got := patchSorted(state, add, rem); !slices.Equal(got, to) {
				t.Fatalf("patchSorted(%v, %v, %v) = %v, want %v", state, add, rem, got, to)
			}
			d := &Delta{DirtyAdded: add, DirtyRemoved: rem}
			if len(add) > 0 {
				d.Added = []Violation{{Rule: rule, Tuples: add}}
			}
			if len(rem) > 0 {
				d.Removed = []Violation{{Rule: rule, Tuples: rem}}
			}
			ds = append(ds, d)
			state = to
		}
		add, rem := diff(first, state)
		m := mergeDeltas(ds, 0, []cfd.CFD{rule})
		if len(m.DirtyAdded)+len(add) > 0 && !slices.Equal(m.DirtyAdded, add) || len(m.DirtyRemoved)+len(rem) > 0 && !slices.Equal(m.DirtyRemoved, rem) {
			t.Fatalf("the span from %v to %v folds to +%v -%v, want +%v -%v", first, state, m.DirtyAdded, m.DirtyRemoved, add, rem)
		}
		var gotAdd, gotRem []int
		for _, v := range m.Added {
			gotAdd = append(gotAdd, v.Tuples...)
		}
		for _, v := range m.Removed {
			gotRem = append(gotRem, v.Tuples...)
		}
		if !slices.Equal(gotAdd, add) || !slices.Equal(gotRem, rem) {
			t.Fatalf("the rule's span from %v to %v folds to +%v -%v, want +%v -%v", first, state, gotAdd, gotRem, add, rem)
		}
	}
}

// BenchmarkMergeDeltas folds the longest span the delta history holds: a
// first commit that dirties 30,000 ids, then 1,023 commits that each add two
// new ids, the next two in ascending order. The fold must stay near linear
// in the ids the span lists, not grow with commits × ids.
func BenchmarkMergeDeltas(b *testing.B) {
	rule := cfd.NewFD([]string{"A"}, "B")
	ds := make([]*Delta, 1024)
	first := make([]int, 30000)
	for i := range first {
		first[i] = i
	}
	ds[0] = &Delta{Added: []Violation{{Rule: rule, Tuples: first}}, DirtyAdded: first}
	for c := 1; c < len(ds); c++ {
		ids := []int{30000 + 2*c, 30001 + 2*c}
		ds[c] = &Delta{Added: []Violation{{Rule: rule, Tuples: ids}}, DirtyAdded: ids}
	}
	table := []cfd.CFD{rule}
	b.ReportAllocs()
	for b.Loop() {
		if m := mergeDeltas(ds, 0, table); len(m.DirtyAdded) != 30000+2*1023 {
			b.Fatalf("merged %d dirty ids", len(m.DirtyAdded))
		}
	}
}
