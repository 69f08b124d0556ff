package diffset

import (
	"context"
	"errors"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

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
	for name, comp := range map[string]Computer{"naive": NewNaive(r), "closed": NewClosed(r)} {
		// (B) D^m_STR(r_{CC=01}) = {{PN}, {AC,CT}}.
		attrs, tp := pattern(t, r, "CC", "01")
		got := comp.MinimalDiffSets(attrs, tp, str)
		want := []core.AttrSet{attrSetOf(t, r, "PN"), attrSetOf(t, r, "AC", "CT")}
		if !sameSets(got, want) {
			t.Errorf("%s: DmSTR(r_CC=01) = %v, want %v", name, got, want)
		}
		// (C) D^m_STR(r_{CC=44}) = {{AC,CT,ZIP}}.
		attrs, tp = pattern(t, r, "CC", "44")
		got = comp.MinimalDiffSets(attrs, tp, str)
		want = []core.AttrSet{attrSetOf(t, r, "AC", "CT", "ZIP")}
		if !sameSets(got, want) {
			t.Errorf("%s: DmSTR(r_CC=44) = %v, want %v", name, got, want)
		}
		// (D) D^m_STR(r_{CC=01,AC=908}) = {{PN}}.
		attrs, tp = pattern(t, r, "CC", "01", "AC", "908")
		got = comp.MinimalDiffSets(attrs, tp, str)
		want = []core.AttrSet{attrSetOf(t, r, "PN")}
		if !sameSets(got, want) {
			t.Errorf("%s: DmSTR(r_CC=01,AC=908) = %v, want %v", name, got, want)
		}
		// (C) [PN] belongs to D^m_STR(r) for the empty pattern.
		got = comp.MinimalDiffSets(core.EmptyAttrSet, core.NewPattern(r.Arity()), str)
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

// TestBackendsAgree cross-validates the naive and closed-item-set backends on
// the cust relation and random relations over every attribute and several
// patterns.
func TestBackendsAgree(t *testing.T) {
	rels := []*core.Relation{
		fixture.Cust(),
		fixture.CustNoNM(),
		fixture.Random(11, 80, []int{3, 4, 2, 5}),
		fixture.RandomCorrelated(5, 120, 5, 5),
	}
	for ri, r := range rels {
		naive := NewNaive(r)
		closed := NewClosed(r)
		// Patterns: the empty pattern plus every frequent single item.
		type pat struct {
			attrs core.AttrSet
			tp    core.Pattern
		}
		pats := []pat{{core.EmptyAttrSet, core.NewPattern(r.Arity())}}
		for a := 0; a < r.Arity(); a++ {
			counts := make(map[int32]int)
			for _, v := range r.Column(a) {
				counts[v]++
			}
			for v, c := range counts {
				if c >= 2 {
					tp := core.NewPattern(r.Arity())
					tp[a] = v
					pats = append(pats, pat{core.SingleAttr(a), tp})
				}
			}
		}
		for _, p := range pats {
			for rhs := 0; rhs < r.Arity(); rhs++ {
				if p.attrs.Has(rhs) {
					continue
				}
				a := naive.MinimalDiffSets(p.attrs, p.tp, rhs)
				b := closed.MinimalDiffSets(p.attrs, p.tp, rhs)
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
	for name, comp := range map[string]Computer{"naive": NewNaive(r), "closed": NewClosed(r)} {
		if got := comp.MinimalDiffSets(attrs, tp, str); len(got) != 0 {
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
	comp := NewClosed(r)
	// Pattern (CC=01); RHS STR.
	attrs, tp := pattern(t, r, "CC", "01")
	str, _ := r.Schema().Index("STR")
	diffs := comp.MinimalDiffSets(attrs, tp, str)
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

// TestClosedPrepare covers the three ways the closed-set backend gets its
// closed sets: an up-front parallel Prepare, the sequential lazy one of the
// first query, and a Prepare after a cancelled one — which must leave the
// computer unprepared rather than half-built. All must answer like the naive
// backend.
func TestClosedPrepare(t *testing.T) {
	r := fixture.RandomCorrelated(5, 120, 5, 5)
	naive := NewNaive(r)
	empty := core.NewPattern(r.Arity())

	upFront := NewClosed(r)
	if err := upFront.Prepare(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	retried := NewClosed(r)
	if err := retried.Prepare(cancelled, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Prepare under a cancelled context: err = %v, want context.Canceled", err)
	}
	if retried.ready.Load() {
		t.Fatal("a cancelled Prepare left the computer marked ready")
	}
	for name, comp := range map[string]*Closed{"up front": upFront, "lazy": NewClosed(r), "after a cancelled Prepare": retried} {
		for rhs := 0; rhs < r.Arity(); rhs++ {
			want := naive.MinimalDiffSets(core.EmptyAttrSet, empty, rhs)
			if got := comp.MinimalDiffSets(core.EmptyAttrSet, empty, rhs); !sameSets(got, want) {
				t.Errorf("%s, rhs %s: %v, want %v", name, r.Schema().Name(rhs), got, want)
			}
		}
		if err := comp.Prepare(cancelled, 1); err != nil {
			t.Errorf("%s: Prepare on a prepared computer: %v, want nil", name, err)
		}
	}
}
