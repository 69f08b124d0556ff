package ctane

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/dataset"
	"repro/internal/core"
	"repro/internal/partition"
)

// refElement is a lattice element as the string-keyed generation describes
// it: no links, its identity is the key.
type refElement struct {
	attrs   core.AttrSet
	tp      core.Pattern
	support int
	part    partition.Partition
}

func elementKey(attrs core.AttrSet, tp core.Pattern) string {
	return attrs.String() + tp.Key(attrs)
}

// referenceNextLevel is Step 4 as it was written before elements were linked:
// survivors grouped by the rendered key of their prefix, every immediate
// sub-element of a candidate looked up by its rendered key, the constant
// part's tuples and each partition taken by a scan of the relation.
func referenceNextLevel(l *lattice) map[string]refElement {
	r, k := l.r, l.k
	byKey := make(map[string]*element, len(l.level))
	type groupKey struct {
		prefix core.AttrSet
		tpKey  string
	}
	groups := make(map[groupKey][]*element)
	for _, e := range l.level {
		byKey[elementKey(e.attrs, l.tp(e))] = e
		prefix := e.attrs.Remove(e.attrs.Last())
		gk := groupKey{prefix, l.tp(e).Key(prefix)}
		groups[gk] = append(groups[gk], e)
	}
	next := make(map[string]refElement)
	for _, group := range groups {
		for _, x := range group {
			for _, y := range group {
				xLast, yLast := x.attrs.Last(), y.attrs.Last()
				if xLast >= yLast {
					continue
				}
				z := x.attrs.Union(y.attrs)
				up := l.tp(x).Clone()
				up[yLast] = l.tp(y)[yLast]
				support := r.CountMatching(up.ConstAttrs(z), up)
				if support < k || support == 0 {
					continue
				}
				ok := true
				z.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
					_, ok = byKey[elementKey(sub, up)]
					return ok
				})
				if !ok {
					continue
				}
				next[elementKey(z, up)] = refElement{attrs: z, tp: up, support: support, part: partition.FromSet(r, z, up)}
			}
		}
	}
	return next
}

// classes renders a partition's stored classes in an order-free form.
func classes(p partition.Partition) []string {
	out := make([]string, p.Stripped())
	for i := range out {
		out[i] = fmt.Sprint(p.Class(i))
	}
	sort.Strings(out)
	return out
}

// checkLinks asserts what the traversal reads through an element's pointers
// and ids: parent i is the element without the i-th attribute and carries
// the same pattern, the level below still holds the partitions the level is
// about to be validated against, and the interned constant part is the
// pattern's. It also asserts that the constant-part table keeps the tuples
// of k-frequent parts only: a part below k is interned as -1.
func checkLinks(t *testing.T, name string, l *lattice) {
	t.Helper()
	for _, e := range l.level {
		tp := l.tp(e)
		if len(e.parents) != e.attrs.Len() {
			t.Fatalf("%s: %v has %d parents", name, e.attrs, len(e.parents))
		}
		e.forEachAttr(func(a int, p *element) {
			ptp := l.tp(p)
			if p.attrs != e.attrs.Remove(a) || !ptp.EqualOn(tp, p.attrs) || ptp[a] != core.Wildcard {
				t.Errorf("%s: %v %v: sub-element without %d is %v %v", name, e.attrs, tp, a, p.attrs, ptp)
			}
			if p.part.Covered < l.k {
				t.Errorf("%s: %v %v: sub-element without %d has given up its partition before the level was validated", name, e.attrs, tp, a)
			}
		})
		part := l.parts[e.constID]
		constAttrs := tp.ConstAttrs(e.attrs)
		if part.consts != constAttrs.Len() || tp.ConstAttrs(l.r.Schema().All()) != constAttrs {
			t.Errorf("%s: %v %v: %d constants recorded", name, e.attrs, tp, part.consts)
		}
		if want := l.r.MatchingTuples(constAttrs, tp); !slices.Equal(part.tids, want) {
			t.Errorf("%s: %v %v: constant part %d holds %v, want %v", name, e.attrs, tp, e.constID, part.tids, want)
		}
	}
	for id, part := range l.parts {
		if len(part.tids) < l.k {
			t.Errorf("%s: constant part %d keeps %d tuples, below k = %d", name, id, len(part.tids), l.k)
		}
	}
	for key, id := range l.constIDs {
		if id >= 0 {
			continue
		}
		tp := l.parts[key.base].tp.Clone()
		tp[key.attr] = key.val
		if n := len(l.r.MatchingTuples(tp.ConstAttrs(l.r.Schema().All()), tp)); n >= l.k {
			t.Errorf("%s: constant part %v is interned as below k, but %d tuples match it", name, tp, n)
		}
	}
}

// TestLatticeLinks drives the lattice level by level on the determinism
// fixtures and checks, at every level, the links of every generated element
// and the generated level itself — elements, supports and partitions —
// against the string-keyed generation, for one and for several workers.
func TestLatticeLinks(t *testing.T) {
	ctx := context.Background()
	for name, r := range parallelFixtures() {
		for _, k := range []int{1, 2, 4} {
			for _, workers := range []int{1, 3} {
				l := newLattice(r, k, workers)
				for depth := 1; len(l.level) > 0; depth++ {
					at := fmt.Sprintf("%s k=%d workers=%d level %d", name, k, workers, depth)
					checkLinks(t, at, l)
					if _, err := l.discover(ctx, nil); err != nil {
						t.Fatal(err)
					}
					for _, e := range l.prev {
						if e.part.SumSizes() != 0 || e.part.Covered != 0 {
							t.Fatalf("%s: an element validated against keeps its partition", at)
						}
					}
					want := referenceNextLevel(l)
					if err := l.advance(ctx); err != nil {
						t.Fatal(err)
					}
					if len(l.level) != len(want) {
						t.Errorf("%s: generated %d elements, reference %d", at, len(l.level), len(want))
					}
					for _, e := range l.level {
						tp := l.tp(e)
						w, ok := want[elementKey(e.attrs, tp)]
						if !ok {
							t.Errorf("%s: generated %v %v, which the reference does not", at, e.attrs, tp)
							continue
						}
						support := len(l.parts[e.constID].tids)
						if support != w.support || e.part.Covered != w.part.Covered || !slices.Equal(classes(e.part), classes(w.part)) {
							t.Errorf("%s: %v %v: support %d covered %d classes %v, reference %d %d %v", at, e.attrs, tp,
								support, e.part.Covered, classes(e.part), w.support, w.part.Covered, classes(w.part))
						}
					}
					// Only two levels stay linked: the survivors no longer
					// point at the level below them.
					for _, e := range l.prev {
						if e.parents != nil {
							t.Fatalf("%s: a survivor still links to the level below", at)
						}
					}
				}
			}
		}
	}
}

// TestMineAllocationsPerElement bounds the allocations of a run by the size
// of the lattice it builds. An element's struct, parents slice and partition
// are carved from per-level blocks and its pattern is its constant part's,
// so what is left per element is mostly its C+ set's removed pairs, its
// place in its prefix's kids and its rules; reaching its sub-elements costs
// nothing — a rendered key per lookup, as the traversal once built, is
// several allocations for each of an element's attributes in each of Steps
// 1, 2 and 4.
func TestMineAllocationsPerElement(t *testing.T) {
	r := parallelFixtures()["corr"]
	const k = 2
	l := newLattice(r, k, 1)
	elements, rules := 0, 0
	for len(l.level) > 0 {
		elements += len(l.level)
		out, err := l.discover(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		rules += len(out)
		if err := l.advance(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := MineContext(context.Background(), r, Options{K: k, Workers: 1}, func(core.CFD) {}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d elements, %d rules, %.0f allocations: %.1f per element", elements, rules, allocs, allocs/float64(elements))
	if perElement := allocs / float64(elements); perElement > 6 {
		t.Errorf("%.1f allocations per lattice element, want at most 6", perElement)
	}
}

// TestLatticeStepsObserveCancellation checks that each step gives up with the
// context's error, rather than finishing its level, once the context is done.
func TestLatticeStepsObserveCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		l := newLattice(parallelFixtures()["cust"], 2, workers)
		if _, err := l.discover(cancelled, nil); err != context.Canceled {
			t.Errorf("workers=%d: discover under a cancelled context: %v", workers, err)
		}
		l = newLattice(parallelFixtures()["cust"], 2, workers)
		if _, err := l.discover(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if err := l.advance(cancelled); err != context.Canceled {
			t.Errorf("workers=%d: advance under a cancelled context: %v", workers, err)
		}
	}
}

// joinTallies runs the lattice to the end and returns its join tallies.
func joinTallies(t *testing.T, r *core.Relation, k, workers int) []joinTally {
	t.Helper()
	l := newLattice(r, k, workers)
	for len(l.level) > 0 {
		if _, err := l.discover(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if err := l.advance(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return l.joins
}

// TestHeldTidsPerJoin pins what the lattice holds at quick scale, on the
// shape of the mine-wide benchmark input shrunk to 600 Tax rows and 9
// attributes (k = 12): at every join the level below the joined one holds no
// tids — only the joined and the generated level keep partitions — the peak
// over the joins is an exact number, and the tallies do not depend on the
// worker count.
func TestHeldTidsPerJoin(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 600, Arity: 9, CF: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rel.Encoded()
	const k = 12
	joins := joinTallies(t, r, k, 1)
	peak := heldTids{}
	for i, j := range joins {
		if j.prev != (heldTids{}) {
			t.Errorf("join %d: the level below the joined one holds %+v", i+1, j.prev)
		}
		if sum := (heldTids{j.level.tids + j.next.tids, j.level.classEnds + j.next.classEnds}); sum.tids+sum.classEnds > peak.tids+peak.classEnds {
			peak = sum
		}
	}
	if want := (heldTids{tids: 115661, classEnds: 29147}); peak != want {
		t.Errorf("peak held %+v over %d joins, want %+v", peak, len(joins), want)
	}
	if par := joinTallies(t, r, k, 3); !slices.Equal(par, joins) {
		t.Errorf("3 workers hold %+v, 1 worker %+v", par, joins)
	}
}
