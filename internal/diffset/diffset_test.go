package diffset

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// newClosed builds the closed-set backend over r on one worker.
func newClosed(t testing.TB, r *core.Relation) *Closed {
	t.Helper()
	c, err := NewClosed(context.Background(), r, 1)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// minimal returns D^m_rhs(r_tp) from comp, the query each FindCover search
// makes of its table.
func minimal(comp Computer, attrs core.AttrSet, tp core.Pattern, rhs int) []core.AttrSet {
	return Restrict(comp.DiffSets(attrs, tp), rhs)
}

func pattern(t *testing.T, r *core.Relation, pairs ...string) (core.AttrSet, core.Pattern) {
	t.Helper()
	attrs := core.EmptyAttrSet
	tp := core.NewPattern(r.Arity())
	for i := 0; i+1 < len(pairs); i += 2 {
		a, ok := r.Schema().Index(pairs[i])
		if !ok {
			t.Fatalf("unknown attribute %q", pairs[i])
		}
		v, ok := r.Dict(a).Lookup(pairs[i+1])
		if !ok {
			t.Fatalf("value %q not in %s", pairs[i+1], pairs[i])
		}
		attrs = attrs.Add(a)
		tp[a] = v
	}
	return attrs, tp
}

func attrSetOf(t *testing.T, r *core.Relation, names ...string) core.AttrSet {
	t.Helper()
	s, err := r.Schema().AttrSetOf(names...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameSets(a, b []core.AttrSet) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]core.AttrSet(nil), a...)
	bs := append([]core.AttrSet(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestMinimize(t *testing.T) {
	sets := []core.AttrSet{
		core.NewAttrSet(0, 1),
		core.NewAttrSet(0),
		core.NewAttrSet(0, 1, 2),
		core.NewAttrSet(2, 3),
		core.NewAttrSet(0),
	}
	got := Minimize(sets)
	want := []core.AttrSet{core.NewAttrSet(0), core.NewAttrSet(2, 3)}
	if !sameSets(got, want) {
		t.Errorf("Minimize = %v, want %v", got, want)
	}
	if len(Minimize(nil)) != 0 {
		t.Error("Minimize(nil) should be empty")
	}
	// The empty set dominates everything.
	got = Minimize([]core.AttrSet{core.EmptyAttrSet, core.NewAttrSet(1)})
	if len(got) != 1 || got[0] != core.EmptyAttrSet {
		t.Errorf("Minimize with empty set = %v", got)
	}
}

func TestCovers(t *testing.T) {
	diffs := []core.AttrSet{core.NewAttrSet(1), core.NewAttrSet(2, 3)}
	if !Covers(core.NewAttrSet(1, 2), diffs) {
		t.Error("{1,2} covers {{1},{2,3}}")
	}
	if Covers(core.NewAttrSet(2, 3), diffs) {
		t.Error("{2,3} does not cover {{1},{2,3}}")
	}
	if !Covers(core.NewAttrSet(5), nil) {
		t.Error("anything covers the empty collection")
	}
	if Covers(core.NewAttrSet(5), []core.AttrSet{core.EmptyAttrSet}) {
		t.Error("nothing covers a collection containing the empty set")
	}
	if !IsMinimalCover(core.NewAttrSet(1, 2), diffs) {
		t.Error("{1,2} should be a minimal cover")
	}
	if IsMinimalCover(core.NewAttrSet(1, 2, 5), diffs) {
		t.Error("{1,2,5} covers but is not minimal")
	}
	if IsMinimalCover(core.NewAttrSet(2, 3), diffs) {
		t.Error("{2,3} is no cover, so no minimal cover")
	}
}

// TestPaperExample9 verifies the difference sets of Example 9 on the cust
// relation without NM (the projection the example uses), with both backends.
func TestPaperExample9(t *testing.T) {
	r := fixture.CustNoNM()
	str, ok := r.Schema().Index("STR")
	if !ok {
		t.Fatal("missing STR")
	}
	for name, comp := range map[string]Computer{"naive": NewNaive(r), "closed": newClosed(t, r)} {
		// (B) D^m_STR(r_{CC=01}) = {{PN}, {AC,CT}}.
		attrs, tp := pattern(t, r, "CC", "01")
		got := minimal(comp, attrs, tp, str)
		want := []core.AttrSet{attrSetOf(t, r, "PN"), attrSetOf(t, r, "AC", "CT")}
		if !sameSets(got, want) {
			t.Errorf("%s: DmSTR(r_CC=01) = %v, want %v", name, got, want)
		}
		// (C) D^m_STR(r_{CC=44}) = {{AC,CT,ZIP}}.
		attrs, tp = pattern(t, r, "CC", "44")
		got = minimal(comp, attrs, tp, str)
		want = []core.AttrSet{attrSetOf(t, r, "AC", "CT", "ZIP")}
		if !sameSets(got, want) {
			t.Errorf("%s: DmSTR(r_CC=44) = %v, want %v", name, got, want)
		}
		// (D) D^m_STR(r_{CC=01,AC=908}) = {{PN}}.
		attrs, tp = pattern(t, r, "CC", "01", "AC", "908")
		got = minimal(comp, attrs, tp, str)
		want = []core.AttrSet{attrSetOf(t, r, "PN")}
		if !sameSets(got, want) {
			t.Errorf("%s: DmSTR(r_CC=01,AC=908) = %v, want %v", name, got, want)
		}
		// (C) [PN] belongs to D^m_STR(r) for the empty pattern.
		got = minimal(comp, core.EmptyAttrSet, core.NewPattern(r.Arity()), str)
		foundPN := false
		for _, d := range got {
			if d == attrSetOf(t, r, "PN") {
				foundPN = true
			}
		}
		if !foundPN {
			t.Errorf("%s: [PN] missing from DmSTR(r): %v", name, got)
		}
	}
}

// backendFixtures are the relations TestBackendsAgree cross-validates the
// backends on, and FuzzBackendsAgree's seeds come from.
func backendFixtures() []*core.Relation {
	return []*core.Relation{
		fixture.Cust(),
		fixture.CustNoNM(),
		fixture.Random(11, 80, []int{3, 4, 2, 5}),
		fixture.RandomCorrelated(5, 120, 5, 5),
	}
}

// TestBackendsAgree cross-validates the naive and closed-item-set backends on
// the cust relation and random relations over every attribute and several
// patterns.
func TestBackendsAgree(t *testing.T) {
	for ri, r := range backendFixtures() {
		naive := NewNaive(r)
		closed := newClosed(t, r)
		// Patterns: the empty pattern, every frequent single item, and every
		// two of those on different attributes.
		type pat struct {
			attrs core.AttrSet
			tp    core.Pattern
		}
		pats := []pat{{core.EmptyAttrSet, core.NewPattern(r.Arity())}}
		for a := 0; a < r.Arity(); a++ {
			counts := make([]int, r.DomainSize(a))
			for _, v := range r.Column(a) {
				counts[v]++
			}
			for v, c := range counts {
				if c >= 2 {
					tp := core.NewPattern(r.Arity())
					tp[a] = int32(v)
					pats = append(pats, pat{core.SingleAttr(a), tp})
				}
			}
		}
		singles := pats[1:]
		for i, x := range singles {
			for _, y := range singles[i+1:] {
				if x.attrs == y.attrs {
					continue
				}
				tp := x.tp.Clone()
				y.attrs.ForEach(func(a int) { tp[a] = y.tp[a] })
				pats = append(pats, pat{x.attrs.Union(y.attrs), tp})
			}
		}
		for _, p := range pats {
			for rhs := 0; rhs < r.Arity(); rhs++ {
				if p.attrs.Has(rhs) {
					continue
				}
				a := minimal(naive, p.attrs, p.tp, rhs)
				b := minimal(closed, p.attrs, p.tp, rhs)
				if !sameSets(a, b) {
					t.Errorf("relation %d, pattern %s, rhs %s: naive %v vs closed %v",
						ri, p.tp.Format(r, p.attrs), r.Schema().Name(rhs), a, b)
				}
			}
		}
	}
}

// TestDiffSetsSingleTuplePattern checks that patterns matched by fewer than two
// tuples yield no difference sets.
func TestDiffSetsSingleTuplePattern(t *testing.T) {
	r := fixture.Cust()
	str, _ := r.Schema().Index("STR")
	attrs, tp := pattern(t, r, "AC", "212")
	for name, comp := range map[string]Computer{"naive": NewNaive(r), "closed": newClosed(t, r)} {
		if got := minimal(comp, attrs, tp, str); len(got) != 0 {
			t.Errorf("%s: single-tuple pattern should have no difference sets, got %v", name, got)
		}
	}
}

// TestDiffSetsSemantics verifies, by brute force, the defining property of
// D^m_A(r_tp): a set Y covers it iff the variable CFD ([X,Y] -> A, (tp,_..._||_))
// holds on r (Lemma 4.2 of the paper).
func TestDiffSetsSemantics(t *testing.T) {
	r := fixture.CustNoNM()
	all := r.Schema().All()
	comp := newClosed(t, r)
	// Pattern (CC=01); RHS STR.
	attrs, tp := pattern(t, r, "CC", "01")
	str, _ := r.Schema().Index("STR")
	diffs := minimal(comp, attrs, tp, str)
	rest := all.Diff(attrs).Remove(str)
	rest.Subsets(func(Y core.AttrSet) bool {
		cfd := core.CFD{LHS: attrs.Union(Y), RHS: str, Tp: tp.Clone()}
		holds := core.Satisfies(r, cfd)
		covers := Covers(Y, diffs)
		if holds != covers {
			t.Errorf("Y=%v: Satisfies=%v but Covers=%v", Y, holds, covers)
		}
		return true
	})
}

// TestClosedPrepare covers how the closed-set backend gets its closed sets:
// NewClosed mines them up front, under a context a cancelled one of which
// returns context.Canceled and no computer. Built on one worker and on four,
// it must answer like the naive backend, and index every item's closed sets,
// in search order, in that item's window.
func TestClosedPrepare(t *testing.T) {
	r := fixture.RandomCorrelated(5, 120, 5, 5)
	naive := NewNaive(r)
	empty := core.NewPattern(r.Arity())

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if c, err := NewClosed(cancelled, r, 2); !errors.Is(err, context.Canceled) || c != nil {
		t.Fatalf("NewClosed under a cancelled context: %v, %v; want nil, context.Canceled", c, err)
	}
	for _, workers := range []int{1, 4} {
		comp, err := NewClosed(context.Background(), r, workers)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("workers=%d", workers)
		for rhs := 0; rhs < r.Arity(); rhs++ {
			want := minimal(naive, core.EmptyAttrSet, empty, rhs)
			if got := minimal(comp, core.EmptyAttrSet, empty, rhs); !sameSets(got, want) {
				t.Errorf("%s, rhs %s: %v, want %v", name, r.Schema().Name(rhs), got, want)
			}
		}
		holding := make(map[[2]int32][]int32)
		for id := range comp.closed.All() {
			tp := comp.closed.Pattern(id)
			comp.closed.Attrs(id).ForEach(func(a int) {
				item := [2]int32{int32(a), tp[a]}
				holding[item] = append(holding[item], id)
			})
		}
		for a, off := range comp.byItem {
			for v := 0; v < r.DomainSize(a); v++ {
				if got, want := comp.ids[off[v]:off[v+1]], holding[[2]int32{int32(a), int32(v)}]; !slices.Equal(got, want) {
					t.Errorf("%s: item (%s, %d) indexes closed sets %v, want %v", name, r.Schema().Name(a), v, got, want)
				}
			}
		}
	}
}

// TestMinimalCoversBounded holds the cover search, at every size bound, to
// the minimal covers a subset enumeration finds within the bound, on seeded
// difference-set collections over five attributes — some holding the empty
// set, one empty — with the candidates a subset of the attributes. No cover
// may be visited twice.
func TestMinimalCoversBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]core.AttrSet{nil, {core.EmptyAttrSet, core.NewAttrSet(0)}}
	for range 40 {
		diffs := make([]core.AttrSet, 1+rng.Intn(5))
		for i := range diffs {
			diffs[i] = core.AttrSet(rng.Intn(32))
		}
		cases = append(cases, diffs)
	}
	for ci, diffs := range cases {
		candidates := []int{0, 1, 2, 3, 4}
		if ci%3 == 2 {
			candidates = []int{0, 2, 3}
		}
		for _, bound := range []int{-1, 0, 1, 2, 3} {
			want := make(map[core.AttrSet]bool)
			core.NewAttrSet(candidates...).Subsets(func(y core.AttrSet) bool {
				if IsMinimalCover(y, diffs) && (bound < 0 || y.Len() <= bound) {
					want[y] = true
				}
				return true
			})
			got := make(map[core.AttrSet]bool)
			MinimalCovers(diffs, candidates, bound, func(y core.AttrSet) {
				if got[y] {
					t.Errorf("case %d %v bound %d: cover %v visited twice", ci, diffs, bound, y)
				}
				got[y] = true
			})
			if len(got) != len(want) {
				t.Errorf("case %d %v bound %d: %d covers, subset enumeration %d", ci, diffs, bound, len(got), len(want))
			}
			for y := range got {
				if !want[y] {
					t.Errorf("case %d %v bound %d: spurious cover %v", ci, diffs, bound, y)
				}
			}
		}
	}
}
