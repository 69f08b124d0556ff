package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"unsafe"

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
func classSets(p Partition) []string {
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

// kernelShapes are the inputs the refinement is held to its definition on:
// one-value columns, all-distinct columns, empty and one-row relations.
var kernelShapes = []struct {
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

// TestChainedProductsMatchFromSet holds the kernels to the direct scan: for
// every lattice element (X, tp) with |X| ≤ 3 over random relations, the
// level-1 partition refined item by item through one reused refiner equals
// FromSet's partition as a set of classes, with the covered count taken from
// the constant part's tid list as CTANE takes it, and the splitter's scratch
// is all zero after every call.
func TestChainedProductsMatchFromSet(t *testing.T) {
	for si, shape := range kernelShapes {
		for seed := int64(0); seed < 3; seed++ {
			r := kernelRelation(rand.New(rand.NewSource(seed+int64(100*si))), shape.n, shape.kinds)
			arity := r.Arity()
			all := AllTids(r.Size())
			items := ItemTids(r, all)
			rf := NewRefiner(r)
			var walk func(from int, X core.AttrSet, tp core.Pattern, part Partition, tids []int32)
			walk = func(from int, X core.AttrSet, tp core.Pattern, part Partition, tids []int32) {
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
					// The wildcard, then every dictionary value (the ghost too).
					for v := int32(core.Wildcard); int(v) < len(items[a]); v++ {
						next := rf.Refine(part, a, v)
						assertZero(t, "split slots", rf.split.slot)
						nextTids := tids
						if v != core.Wildcard {
							nextTids = nil
							for _, t := range tids {
								if r.Value(int(t), a) == v {
									nextTids = append(nextTids, t)
								}
							}
						}
						ntp := tp.Clone()
						ntp[a] = v
						walk(a+1, X.Add(a), ntp, next, nextTids)
					}
				}
			}
			walk(0, core.EmptyAttrSet, core.NewPattern(arity), FromItem(all), all)
		}
	}
}

// TestRefineEitherParent checks the symmetry the levelwise join relies on to
// scan the smaller parent: for x = (P∪{A}, sp·a) and y = (P∪{B}, sp·b), x
// refined by y's last item and y refined by x's give the same classes —
// those of the joined element — whether a and b are wildcards or constants.
func TestRefineEitherParent(t *testing.T) {
	for si, shape := range kernelShapes {
		r := kernelRelation(rand.New(rand.NewSource(int64(7+si))), shape.n, shape.kinds)
		rf := NewRefiner(r)
		// P is empty or the first attribute, as a wildcard.
		for _, P := range []core.AttrSet{core.EmptyAttrSet, core.SingleAttr(0)} {
			for A := 1; A < r.Arity(); A++ {
				for B := A + 1; B < r.Arity(); B++ {
					for a := int32(core.Wildcard); int(a) < r.DomainSize(A); a++ {
						for b := int32(core.Wildcard); int(b) < r.DomainSize(B); b++ {
							tp := core.NewPattern(r.Arity())
							tp[A], tp[B] = a, b
							x, y := FromSet(r, P.Add(A), tp), FromSet(r, P.Add(B), tp)
							want := classSets(FromSet(r, P.Add(A).Add(B), tp))
							fromX, fromY := classSets(rf.Refine(x, B, b)), classSets(rf.Refine(y, A, a))
							if !slices.Equal(fromX, want) || !slices.Equal(fromY, want) {
								t.Fatalf("shape %d %s: x refined gives %v, y refined %v, want %v",
									si, tp.Format(r, P.Add(A).Add(B)), fromX, fromY, want)
							}
						}
					}
				}
			}
		}
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

// TestProductAllocationsAreConstant guards the flat layout and the arena: a
// product is carved from the refiner's current block, so a refinement
// allocates at most once — a new block, or the own buffer of a product too
// large for one — however many classes it has.
func TestProductAllocationsAreConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, rows := range []int{4000, arenaMaxBlock / 2} {
		for _, domain := range []int{2, 40, 900} {
			r := kernelRelation(rng, rows, []int{domain, domain})
			rf := NewRefiner(r)
			x := attrPartition(r, 0)
			for _, val := range []int32{core.Wildcard, 1} {
				classes := rf.Refine(x, 1, val).Stripped() // also grows the refiner's buffers
				allocs := testing.AllocsPerRun(20, func() { rf.Refine(x, 1, val) })
				if allocs > 1 {
					t.Errorf("%d rows: refinement into %d classes allocates %.2f objects, want at most 1", rows, classes, allocs)
				}
			}
		}
	}
}

// TestRefinerArena checks the lifetime a levelwise caller relies on: the
// products of one arena are carved back to back, and after NewArena no
// product shares a block with one refined before it.
func TestRefinerArena(t *testing.T) {
	r := kernelRelation(rand.New(rand.NewSource(5)), 300, []int{3, 4})
	rf := NewRefiner(r)
	x := attrPartition(r, 0)
	a := rf.Refine(x, 1, core.Wildcard)
	b := rf.Refine(x, 1, core.Wildcard)
	if !adjacent(a, b) {
		t.Error("two products of one arena are not carved back to back")
	}
	rf.NewArena()
	c := rf.Refine(x, 1, core.Wildcard)
	if adjacent(b, c) {
		t.Error("a product of a new arena is carved from the old arena's block")
	}
	if want := classSets(a); !slices.Equal(classSets(b), want) || !slices.Equal(classSets(c), want) {
		t.Errorf("the same refinement gives %v, %v and %v", want, classSets(b), classSets(c))
	}
}

// adjacent reports whether q's buffer starts where p's ends.
func adjacent(p, q Partition) bool {
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(p.ends)), 4*len(p.ends))
	return end == unsafe.Pointer(unsafe.SliceData(q.tids))
}

// FuzzProduct checks the product by refinement against the direct scan: over
// a relation of three fuzzed columns P, A and B, the partitions of (PA, a)
// and (PB, b) — wildcards or constants, a value at or above 250 being the
// wildcard — each refined by the other's last item give FromSet's classes of
// (PAB, ab).
func FuzzProduct(f *testing.F) {
	f.Add([]byte{0}, []byte{0}, []byte{0}, uint8(0), uint8(255), uint8(255))                           // empty relation
	f.Add([]byte{0}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{0}, uint8(8), uint8(255), uint8(255))      // all singletons × one class
	f.Add([]byte{0}, []byte{0, 1}, []byte{0, 0, 1, 1}, uint8(16), uint8(255), uint8(255))              // classes split in two
	f.Add([]byte{0, 1, 1}, []byte{0, 0, 9, 1}, []byte{3, 7, 3, 3, 9}, uint8(40), uint8(0), uint8(255)) // a constant cuts classes down
	f.Add([]byte{0, 0, 1}, []byte{2, 2, 5}, []byte{4, 4, 4, 6}, uint8(60), uint8(2), uint8(4))         // constants on both sides
	f.Fuzz(func(t *testing.T, colP, colA, colB []byte, size, a, b uint8) {
		if len(colP) == 0 || len(colA) == 0 || len(colB) == 0 {
			return
		}
		r := core.NewRelation(core.MustSchema("P", "A", "B"))
		for i := 0; i < int(size); i++ {
			row := []string{strconv.Itoa(int(colP[i%len(colP)])), strconv.Itoa(int(colA[i%len(colA)])), strconv.Itoa(int(colB[i%len(colB)]))}
			if err := r.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		// A constant the column does not hold is still a dictionary value.
		item := func(attr int, v uint8) int32 {
			if v >= 250 {
				return core.Wildcard
			}
			return r.Dict(attr).Encode(strconv.Itoa(int(v)))
		}
		tp := core.Pattern{core.Wildcard, item(1, a), item(2, b)}
		x, y := FromSet(r, core.NewAttrSet(0, 1), tp), FromSet(r, core.NewAttrSet(0, 2), tp)
		want := classSets(FromSet(r, core.NewAttrSet(0, 1, 2), tp))
		rf := NewRefiner(r)
		fromX := classSets(rf.Refine(x, 2, tp[2]))
		assertZero(t, "split slots", rf.split.slot)
		fromY := classSets(rf.Refine(y, 1, tp[1]))
		assertZero(t, "split slots", rf.split.slot)
		if !slices.Equal(fromX, want) || !slices.Equal(fromY, want) {
			t.Fatalf("P %v A %v B %v over %d tuples, pattern %v: x refined gives %v, y refined %v, want %v",
				colP, colA, colB, size, tp, fromX, fromY, want)
		}
	})
}
