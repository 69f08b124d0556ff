package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
)

// kernelRelation builds a relation of n rows whose columns are drawn from
// kinds: 0 = one value, -1 = all distinct, d > 0 = random over d values. Each
// dictionary also holds one value no tuple carries, as the dictionaries of an
// Engine.Relation() copy can.
func kernelRelation(rng *rand.Rand, n int, kinds []int) *core.Relation {
	names := make([]string, len(kinds))
	for a := range names {
		names[a] = "A" + strconv.Itoa(a)
	}
	r := core.NewRelation(core.MustSchema(names...))
	for a := range kinds {
		r.Dict(a).Encode("ghost")
	}
	row := make([]string, len(kinds))
	for t := 0; t < n; t++ {
		for a, d := range kinds {
			switch {
			case d == 0:
				row[a] = "c"
			case d < 0:
				row[a] = "u" + strconv.Itoa(t)
			default:
				row[a] = "v" + strconv.Itoa(rng.Intn(d))
			}
		}
		if err := r.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return r
}

// classSets renders the stored classes of p in a canonical order, so that two
// partitions compare as sets of classes.
func classSets(p *Partition) []string {
	out := make([]string, p.Stripped())
	for i := range out {
		cls := p.Class(i)
		if !slices.IsSorted(cls) {
			out[i] = "unsorted:"
		}
		out[i] += fmt.Sprint(cls)
	}
	slices.Sort(out)
	return out
}

func assertZero(t *testing.T, what string, s []int32) {
	t.Helper()
	for i, v := range s {
		if v != 0 {
			t.Fatalf("%s[%d] = %d after the call, want all zero", what, i, v)
		}
	}
}

// TestChainedProductsMatchFromSet holds the kernels to the direct scan: for
// every lattice element (X, tp) with |X| ≤ 3 over random relations — one-value
// columns, all-distinct columns, empty and one-row inputs included — the
// product of the level-1 partitions, chained through one reused probe, equals
// FromSet's partition as a set of classes, with the covered count taken from
// the constant part's tid list as CTANE takes it, and the probe's scratch is
// all zero after every call.
func TestChainedProductsMatchFromSet(t *testing.T) {
	shapes := []struct {
		n     int
		kinds []int
	}{
		{0, []int{2, 3, 0}},
		{1, []int{2, -1, 0}},
		{2, []int{0, 0, -1}},
		{40, []int{0, -1, 2, 3}},
		{120, []int{2, 3, 4, 0}},
		{200, []int{3, 5, 2, 7}},
		{300, []int{-1, 2, 2, 40}},
	}
	for si, shape := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			r := kernelRelation(rand.New(rand.NewSource(seed+int64(100*si))), shape.n, shape.kinds)
			n, arity := r.Size(), r.Arity()
			all := AllTids(n)
			items := ItemTids(r, all)
			pr := NewProbe(n)
			// choices[a] lists the level-1 elements on attribute a: the
			// wildcard first, then every dictionary value (the ghost too).
			type level1 struct {
				value int32
				part  *Partition
				tids  []int32
			}
			choices := make([][]level1, arity)
			for a := range choices {
				choices[a] = append(choices[a], level1{core.Wildcard, FromAttribute(r, a), all})
				for v, tids := range items[a] {
					choices[a] = append(choices[a], level1{int32(v), FromItem(tids), tids})
				}
			}
			var walk func(from int, X core.AttrSet, tp core.Pattern, part *Partition, tids []int32)
			walk = func(from int, X core.AttrSet, tp core.Pattern, part *Partition, tids []int32) {
				if !X.IsEmpty() {
					part.Covered = len(tids)
					want := FromSet(r, X, tp)
					name := fmt.Sprintf("shape %d seed %d %s", si, seed, tp.Format(r, X))
					if part.Covered != want.Covered || part.NumClasses() != want.NumClasses() || part.SumSizes() != want.SumSizes() {
						t.Fatalf("%s: covered/classes/sizes %d/%d/%d, want %d/%d/%d", name,
							part.Covered, part.NumClasses(), part.SumSizes(), want.Covered, want.NumClasses(), want.SumSizes())
					}
					if got, want := classSets(part), classSets(want); !slices.Equal(got, want) {
						t.Fatalf("%s: classes %v, want %v", name, got, want)
					}
				}
				if X.Len() == 3 {
					return
				}
				for a := from; a < arity; a++ {
					for _, c := range choices[a] {
						next, nextTids := c.part, c.tids
						if !X.IsEmpty() {
							next = ProductWith(part, c.part, pr)
							assertZero(t, "probe table", pr.class)
							assertZero(t, "split slots", pr.split.slot)
							nextTids = tids
							if c.value != core.Wildcard {
								nextTids = nil
								for _, t := range tids {
									if r.Value(int(t), a) == c.value {
										nextTids = append(nextTids, t)
									}
								}
							}
						}
						ntp := tp.Clone()
						ntp[a] = c.value
						walk(a+1, X.Add(a), ntp, next, nextTids)
					}
				}
			}
			walk(0, core.EmptyAttrSet, core.NewPattern(arity), nil, all)
		}
	}
}

// TestProbeSharedAcrossRightOperands checks that one Load serves every
// product against it and that the order of the operands does not change the
// product: both are what lets the levelwise algorithms fill the probe table
// once per left parent.
func TestProbeSharedAcrossRightOperands(t *testing.T) {
	r := kernelRelation(rand.New(rand.NewSource(9)), 400, []int{4, 6, 3, 9, 2})
	parts := make([]*Partition, r.Arity())
	for a := range parts {
		parts[a] = FromAttribute(r, a)
	}
	shared, oneOff := NewProbe(r.Size()), NewProbe(r.Size())
	for a, x := range parts {
		shared.Load(x)
		for b, y := range parts {
			got := classSets(shared.Product(y))
			if want := classSets(ProductWith(x, y, oneOff)); !slices.Equal(got, want) {
				t.Errorf("attrs %d,%d: shared probe gives %v, one-off product %v", a, b, got, want)
			}
			if want := classSets(ProductWith(y, x, oneOff)); !slices.Equal(got, want) {
				t.Errorf("attrs %d,%d: product is not symmetric: %v vs %v", a, b, got, want)
			}
		}
		shared.Unload()
		assertZero(t, "probe table", shared.class)
	}
}

// mapRegroup is the plain map regroup the counting split replaced, kept as
// the split's reference: groups of at least minSize tids by key, in
// first-appearance order.
func mapRegroup(key, tids []int32, minSize int) (codes []int32, groups [][]int32) {
	buckets := make(map[int32][]int32)
	var order []int32
	for _, t := range tids {
		k := key[t]
		if k < 0 {
			continue
		}
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], t)
	}
	for _, k := range order {
		if len(buckets[k]) >= minSize {
			codes = append(codes, k)
			groups = append(groups, buckets[k])
		}
	}
	return codes, groups
}

// TestSplitMatchesMapRegroup holds the counting split to the map regroup on
// random tid subsets, thresholds and key spaces, appending several splits to
// one output as the closed-set miner does, and checks the slots are zero
// after every call.
func TestSplitMatchesMapRegroup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		n := rng.Intn(60)
		keys := 1 + rng.Intn(12)
		key := make([]int32, n)
		for i := range key {
			key[i] = int32(rng.Intn(keys+1)) - 1 // -1 marks a hole
		}
		var tids []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				tids = append(tids, int32(i))
			}
		}
		s := NewSplitter(keys)
		var g Groups
		var wantCodes []int32
		var wantGroups [][]int32
		for call := 0; call < 3; call++ {
			minSize := rng.Intn(4)
			s.Split(key, tids, minSize, &g)
			assertZero(t, "split slots", s.slot)
			codes, groups := mapRegroup(key, tids, max(minSize, 1))
			wantCodes = append(wantCodes, codes...)
			wantGroups = append(wantGroups, groups...)
		}
		if !slices.Equal(g.Codes, wantCodes) || g.Len() != len(wantGroups) {
			t.Fatalf("round %d: codes %v (%d groups), want %v (%d groups)", round, g.Codes, g.Len(), wantCodes, len(wantGroups))
		}
		for i, want := range wantGroups {
			if !slices.Equal(g.Group(i), want) {
				t.Fatalf("round %d group %d: %v, want %v", round, i, g.Group(i), want)
			}
		}
		g.Reset()
		if g.Len() != 0 || len(g.Tids) != 0 {
			t.Fatal("Reset left groups behind")
		}
	}
}

// TestProductAllocationsAreConstant guards the flat layout: a product
// allocates the partition and its one buffer, however many classes it has.
func TestProductAllocationsAreConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, domain := range []int{2, 40, 900} {
		r := kernelRelation(rng, 4000, []int{domain, domain})
		x, y := FromAttribute(r, 0), FromAttribute(r, 1)
		pr := NewProbe(r.Size())
		classes := ProductWith(x, y, pr).Stripped() // also grows the probe's buffers
		allocs := testing.AllocsPerRun(20, func() { ProductWith(x, y, pr) })
		if allocs > 2 {
			t.Errorf("product of %d classes allocates %.0f objects, want at most 2", classes, allocs)
		}
	}
}

// fuzzPartition decodes bytes into a partition over n tuples: byte t is the
// class label of tuple t; a label at or above 250 leaves the tuple out (as a
// constant pattern that does not match it would).
func fuzzPartition(labels []byte, n int) *Partition {
	groups := make(map[byte][]int32)
	covered := 0
	for t := 0; t < n; t++ {
		if l := labels[t%len(labels)]; l < 250 {
			groups[l] = append(groups[l], int32(t))
			covered++
		}
	}
	p := &Partition{Covered: covered}
	for l := 0; l < 250; l++ {
		if g := groups[byte(l)]; len(g) >= 2 {
			p.tids = append(p.tids, g...)
			p.ends = append(p.ends, int32(len(p.tids)))
		}
	}
	return p
}

// FuzzProduct checks the probe-table product against the definition: two
// tuples share a product class iff they share a class in both operands.
func FuzzProduct(f *testing.F) {
	f.Add([]byte{255}, []byte{0}, uint8(6))                         // empty left operand
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0}, uint8(8))      // all singletons × one class
	f.Add([]byte{0}, []byte{0}, uint8(9))                           // one class × one class
	f.Add([]byte{0, 1}, []byte{0, 0, 1, 1}, uint8(16))              // classes split in two
	f.Add([]byte{0, 0, 255, 1}, []byte{3, 255, 3, 3, 9}, uint8(40)) // constants leave tuples out
	f.Fuzz(func(t *testing.T, left, right []byte, size uint8) {
		n := int(size)
		if len(left) == 0 || len(right) == 0 {
			return
		}
		x, y := fuzzPartition(left, n), fuzzPartition(right, n)
		pr := NewProbe(n)
		got := ProductWith(x, y, pr)
		assertZero(t, "probe table", pr.class)
		assertZero(t, "split slots", pr.split.slot)

		type pair struct{ l, r byte }
		groups := make(map[pair][]int32)
		for i := 0; i < n; i++ {
			l, r := left[i%len(left)], right[i%len(right)]
			if l < 250 && r < 250 {
				groups[pair{l, r}] = append(groups[pair{l, r}], int32(i))
			}
		}
		var want []string
		for _, g := range groups {
			if len(g) >= 2 {
				want = append(want, fmt.Sprint(g))
			}
		}
		slices.Sort(want)
		if gotSets := classSets(got); !slices.Equal(gotSets, want) {
			t.Fatalf("product of %v and %v over %d tuples: %v, want %v", left, right, n, gotSets, want)
		}
	})
}
