package ctane

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
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
		byKey[elementKey(e.attrs, e.tp())] = e
		prefix := e.attrs.Remove(e.attrs.Last())
		gk := groupKey{prefix, e.tp().Key(prefix)}
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
				up := x.tp().Clone()
				up[yLast] = y.tp()[yLast]
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
// and the order it relies on: parent i is the element without the i-th
// attribute and carries the same pattern, the level below still holds the
// partitions the level is about to be validated against, and the constant
// part is the pattern's. Elements with the same constants share one
// constant part, and the level is sorted by compareInLevel.
func checkLinks(t *testing.T, name string, l *lattice) {
	t.Helper()
	for i, e := range l.level {
		tp := e.tp()
		if i > 0 && compareInLevel(l.level[i-1], e) > 0 {
			t.Errorf("%s: %v %v is out of level order after %v %v", name, e.attrs, tp, l.level[i-1].attrs, l.level[i-1].tp())
		}
		if len(e.parents) != e.attrs.Len() {
			t.Fatalf("%s: %v has %d parents", name, e.attrs, len(e.parents))
		}
		e.forEachAttr(func(a int, p *element) {
			ptp := p.tp()
			if p.attrs != e.attrs.Remove(a) || !ptp.EqualOn(tp, p.attrs) || ptp[a] != core.Wildcard {
				t.Errorf("%s: %v %v: sub-element without %d is %v %v", name, e.attrs, tp, a, p.attrs, ptp)
			}
			if p.part.Covered < l.k {
				t.Errorf("%s: %v %v: sub-element without %d has given up its partition before the level was validated", name, e.attrs, tp, a)
			}
		})
		constAttrs := tp.ConstAttrs(e.attrs)
		if e.cp.consts != constAttrs.Len() || tp.ConstAttrs(l.r.Schema().All()) != constAttrs {
			t.Errorf("%s: %v %v: %d constants recorded", name, e.attrs, tp, e.cp.consts)
		}
		if want := l.r.MatchingTuples(constAttrs, tp); !slices.Equal(e.cp.tids, want) {
			t.Errorf("%s: %v %v: constant part holds %v, want %v", name, e.attrs, tp, e.cp.tids, want)
		}
	}
	parts := make(map[string]*constPart)
	for _, e := range slices.Concat(l.prev, l.level) {
		key := e.tp().Key(l.r.Schema().All())
		if p, ok := parts[key]; ok && p != e.cp {
			t.Errorf("%s: %v %v: two constant parts hold its constants", name, e.attrs, e.tp())
		}
		parts[key] = e.cp
	}
}

// compareInLevel orders two elements the way a level is sorted, worked out
// apart from levelOrder: by attribute set as an ascending list, then by
// number of constants, then by the codes on the attribute set, attribute by
// attribute, the wildcard first.
func compareInLevel(x, y *element) int {
	key := func(e *element) (attrs, codes []int32, consts int) {
		for _, a := range e.attrs.Attrs() {
			attrs = append(attrs, int32(a))
			codes = append(codes, e.tp()[a])
		}
		return attrs, codes, e.tp().ConstAttrs(e.attrs).Len()
	}
	xAttrs, xCodes, xConsts := key(x)
	yAttrs, yCodes, yConsts := key(y)
	return cmp.Or(slices.Compare(xAttrs, yAttrs), cmp.Compare(xConsts, yConsts), slices.Compare(xCodes, yCodes))
}

// checkKids asserts, once a join has run, that the kids of prev, the level
// below the joined one, are the elements of the joined level grouped by
// prefix, those Step 3 pruned included: each survivor extends its prefix's
// attribute set by a larger attribute and carries its pattern, every one of
// level is a kid once, and every kids list is sorted by last item —
// attribute, then value with the wildcard first — as the join's lookups
// require. Of a pruned kid only its last item is left.
func checkKids(t *testing.T, name string, prev, level []*element) {
	t.Helper()
	n := 0
	for _, p := range prev {
		var b *element // the survivor before c
		for i, c := range p.kids {
			if i > 0 && p.kids[i-1].lastItem >= c.lastItem {
				t.Errorf("%s: kids of %v %v: last items out of order", name, p.attrs, p.tp())
			}
			if c.pruned() {
				continue
			}
			n++
			last := c.attrs.Last()
			if c.attrs.Remove(last) != p.attrs || !c.tp().EqualOn(p.tp(), p.attrs) {
				t.Errorf("%s: %v %v is a kid of %v %v", name, c.attrs, c.tp(), p.attrs, p.tp())
			}
			if b != nil {
				bLast := b.attrs.Last()
				if cmp.Or(cmp.Compare(bLast, last), cmp.Compare(b.tp()[bLast], c.tp()[last])) >= 0 {
					t.Errorf("%s: kids of %v %v: %v %v before %v %v", name, p.attrs, p.tp(), b.attrs, b.tp(), c.attrs, c.tp())
				}
			}
			b = c
		}
	}
	if n != len(level) {
		t.Errorf("%s: %d surviving kids, %d survivors", name, n, len(level))
	}
}

// TestLatticeLinks drives the lattice level by level on the determinism
// fixtures and checks, at every level, the links and the order of every
// generated element, the kids lists each join read, and the generated level
// itself — elements, supports and partitions — against the string-keyed
// generation, for one and for several workers.
func TestLatticeLinks(t *testing.T) {
	ctx := context.Background()
	for name, r := range parallelFixtures() {
		for _, k := range []int{1, 2, 4} {
			for _, workers := range []int{1, 3} {
				l := newLattice(r, k, workers, false)
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
					prev, survivors := l.prev, l.level
					if err := l.advance(ctx); err != nil {
						t.Fatal(err)
					}
					checkKids(t, at, prev, survivors)
					if len(l.level) != len(want) {
						t.Errorf("%s: generated %d elements, reference %d", at, len(l.level), len(want))
					}
					for _, e := range l.level {
						tp := e.tp()
						w, ok := want[elementKey(e.attrs, tp)]
						if !ok {
							t.Errorf("%s: generated %v %v, which the reference does not", at, e.attrs, tp)
							continue
						}
						support := len(e.cp.tids)
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
// of the lattice it builds, on one worker and on two. An element's struct,
// parents and kids slices and partition are carved from per-level blocks
// and its pattern is its constant part's, so what is left per element is
// mostly its C+ set's removed pairs and its rules; reaching its
// sub-elements costs nothing — a rendered key per lookup, as the traversal
// once built, is several allocations for each of an element's attributes in
// each of Steps 1, 2 and 4.
func TestMineAllocationsPerElement(t *testing.T) {
	r := parallelFixtures()["corr"]
	const k = 2
	l := newLattice(r, k, 1, false)
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
	for _, workers := range []int{1, 2} {
		allocs := testing.AllocsPerRun(3, func() {
			if err := MineContext(context.Background(), r, Options{K: k, Workers: workers}, func(core.CFD) {}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("workers=%d: %d elements, %d rules, %.0f allocations: %.1f per element", workers, elements, rules, allocs, allocs/float64(elements))
		if perElement := allocs / float64(elements); perElement > 6 {
			t.Errorf("workers=%d: %.1f allocations per lattice element, want at most 6", workers, perElement)
		}
	}
}

// TestLatticeStepsObserveCancellation checks that each step gives up with the
// context's error, rather than finishing its level, once the context is done.
func TestLatticeStepsObserveCancellation(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		l := newLattice(parallelFixtures()["cust"], 2, workers, false)
		if _, err := l.discover(cancelled, nil); err != context.Canceled {
			t.Errorf("workers=%d: discover under a cancelled context: %v", workers, err)
		}
		l = newLattice(parallelFixtures()["cust"], 2, workers, false)
		if _, err := l.discover(context.Background(), nil); err != nil {
			t.Fatal(err)
		}
		if err := l.advance(cancelled); err != context.Canceled {
			t.Errorf("workers=%d: advance under a cancelled context: %v", workers, err)
		}
	}
}

// countdownCtx reports itself cancelled from its (n+1)-th Err call on. Its
// Done channel never closes, so only the steps' own Err checks see it.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAdvanceCancelledInsideJoin cancels a join after n of the context
// checks a complete one makes, those inside the join's tasks included, for
// growing n and for each n near the end, where the products and the sorts
// check: advance returns the context's error, and only with every check
// passed the complete level.
func TestAdvanceCancelledInsideJoin(t *testing.T) {
	r := parallelFixtures()["corr"]
	// ready returns a lattice whose third level is validated: its join has
	// several runs of prefixes, each with several kids.
	ready := func() *lattice {
		l := newLattice(r, 2, 1, false)
		for depth := 1; depth <= 3; depth++ {
			if _, err := l.discover(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			if depth < 3 {
				if err := l.advance(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		return l
	}
	full, counter := ready(), &countdownCtx{Context: context.Background()}
	counter.n.Store(math.MaxInt64)
	if err := full.advance(counter); err != nil {
		t.Fatal(err)
	}
	checks := int(math.MaxInt64 - counter.n.Load())
	var ns []int
	for n := 0; n < checks-64; n = 2*n + 1 {
		ns = append(ns, n)
	}
	for n := max(0, checks-64); n <= checks; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		l := ready()
		ctx := &countdownCtx{Context: context.Background()}
		ctx.n.Store(int64(n))
		err := l.advance(ctx)
		if n < checks && err != context.Canceled {
			t.Errorf("cancelled after %d of %d checks: %v", n, checks, err)
		}
		if n == checks && (err != nil || len(l.level) != len(full.level)) {
			t.Errorf("after all %d checks: %v, %d elements, want %d", checks, err, len(l.level), len(full.level))
		}
	}
}

// joinTallies runs the lattice to the end and returns its join tallies.
func joinTallies(t *testing.T, r *core.Relation, k, workers int) []joinTally {
	t.Helper()
	l := newLattice(r, k, workers, false)
	l.tally = true
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
	if want := (heldTids{tids: 95861, classEnds: 25011}); peak != want {
		t.Errorf("peak held %+v over %d joins, want %+v", peak, len(joins), want)
	}
	if par := joinTallies(t, r, k, 3); !slices.Equal(par, joins) {
		t.Errorf("3 workers hold %+v, 1 worker %+v", par, joins)
	}
}

// TestFDLatticeLevels pins the wildcard-only lattice, driven level by level
// on Tax 2000×12 (CF 0.7, seed 1) on one worker and on three, to TANE's
// lattice: the number of elements each level holds before Step 3 and after
// it is TANE's. An emptiness test that waits for every attribute to be
// removed entirely keeps elements TANE prunes, which makes later levels
// larger.
func TestFDLatticeLevels(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 2000, Arity: 12, CF: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rel.Encoded()
	wantBefore := []int{12, 66, 210, 387, 419, 141, 16}
	wantAfter := []int{12, 65, 201, 373, 348, 130, 12}
	for _, workers := range []int{1, 3} {
		l := newLattice(r, 1, workers, true)
		var before, after []int
		for len(l.level) > 0 {
			before = append(before, len(l.level))
			if _, err := l.discover(context.Background(), nil); err != nil {
				t.Fatal(err)
			}
			after = append(after, len(l.level))
			if err := l.advance(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(before, wantBefore) || !slices.Equal(after, wantAfter) {
			t.Errorf("workers=%d: levels hold %v elements, %v after Step 3; TANE's hold %v, %v", workers, before, after, wantBefore, wantAfter)
		}
	}
}
