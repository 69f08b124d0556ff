package ctane

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/partition"
)

// refElement is a lattice element as the string-keyed generation describes
// it: no links, its identity is the key.
type refElement struct {
	attrs   core.AttrSet
	tp      core.Pattern
	support int
	part    *partition.Partition
}

func elementKey(attrs core.AttrSet, tp core.Pattern) string {
	return attrs.String() + tp.Key(attrs)
}

// referenceNextLevel is Step 4 as it was written before elements were linked:
// survivors grouped by the rendered key of their prefix, every immediate
// sub-element of a candidate looked up by its rendered key, the constant
// part's tuples and each partition taken by a scan of the relation.
func referenceNextLevel(r *core.Relation, level []*element, k int) map[string]refElement {
	byKey := make(map[string]*element, len(level))
	type groupKey struct {
		prefix core.AttrSet
		tpKey  string
	}
	groups := make(map[groupKey][]*element)
	for _, e := range level {
		byKey[elementKey(e.attrs, e.tp)] = e
		prefix := e.attrs.Remove(e.attrs.Last())
		gk := groupKey{prefix, e.tp.Key(prefix)}
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
				up := x.tp.Clone()
				up[yLast] = y.tp[yLast]
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
func classes(p *partition.Partition) []string {
	out := make([]string, p.Stripped())
	for i := range out {
		out[i] = fmt.Sprint(p.Class(i))
	}
	sort.Strings(out)
	return out
}

// checkLinks asserts what the traversal reads through an element's pointers:
// parent i is the element without the i-th attribute and carries the same
// pattern, and the interned constant part is the pattern's.
func checkLinks(t *testing.T, name string, l *lattice) {
	t.Helper()
	for _, e := range l.level {
		if len(e.parents) != e.attrs.Len() {
			t.Fatalf("%s: %v has %d parents", name, e.attrs, len(e.parents))
		}
		e.forEachAttr(func(a int, p *element) {
			if p.attrs != e.attrs.Remove(a) || !p.tp.EqualOn(e.tp, p.attrs) || p.tp[a] != core.Wildcard {
				t.Errorf("%s: %v %v: sub-element without %d is %v %v", name, e.attrs, e.tp, a, p.attrs, p.tp)
			}
			if p.part == nil || p.cplus == nil {
				t.Errorf("%s: %v %v: sub-element without %d has lost its partition or C+", name, e.attrs, e.tp, a)
			}
		})
		constAttrs := e.tp.ConstAttrs(e.attrs)
		if e.consts != constAttrs.Len() {
			t.Errorf("%s: %v %v: %d constants recorded", name, e.attrs, e.tp, e.consts)
		}
		if want := l.r.MatchingTuples(constAttrs, e.tp); e.support != len(want) || !slices.Equal(l.constTids[e.constID], want) {
			t.Errorf("%s: %v %v: constant part %d holds %v (support %d), want %v", name, e.attrs, e.tp, e.constID, l.constTids[e.constID], e.support, want)
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
					want := referenceNextLevel(r, l.level, k)
					if err := l.advance(ctx); err != nil {
						t.Fatal(err)
					}
					if len(l.level) != len(want) {
						t.Errorf("%s: generated %d elements, reference %d", at, len(l.level), len(want))
					}
					for _, e := range l.level {
						w, ok := want[elementKey(e.attrs, e.tp)]
						if !ok {
							t.Errorf("%s: generated %v %v, which the reference does not", at, e.attrs, e.tp)
							continue
						}
						if e.support != w.support || e.part.Covered != w.part.Covered || !slices.Equal(classes(e.part), classes(w.part)) {
							t.Errorf("%s: %v %v: support %d covered %d classes %v, reference %d %d %v", at, e.attrs, e.tp,
								e.support, e.part.Covered, classes(e.part), w.support, w.part.Covered, classes(w.part))
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
// of the lattice it builds: an element costs its struct, pattern, partition
// and C+ set, and reaching its sub-elements costs nothing — a rendered key
// per lookup, as the traversal once built, is several allocations for each
// of an element's attributes in each of Steps 1, 2 and 4.
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
	if perElement := allocs / float64(elements); perElement > 12 {
		t.Errorf("%.1f allocations per lattice element, want at most 12", perElement)
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
