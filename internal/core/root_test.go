package core

import (
	"fmt"
	"slices"
	"testing"
)

// rootRelation returns 40 tuples over W, A, B, E: W's classes hold two tuples
// each (the last value once), A three values, B five, E two.
func rootRelation(t *testing.T) (*Relation, []int32) {
	t.Helper()
	rel := NewRelation(MustSchema("W", "A", "B", "E"))
	var ids []int32
	for i := range 40 {
		w := i / 2
		if i == 39 {
			w = 99 // a class of one tuple
		}
		if err := rel.AppendRow([]string{fmt.Sprint(w), fmt.Sprint(i % 3), fmt.Sprint(i % 5), fmt.Sprint(i % 2)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, int32(i))
	}
	return rel, ids
}

// TestPlanRoots holds PlanRoots to its rule: a set of two or more attributes
// names its attribute with the most distinct live values when that
// attribute's classes average at most rootMeanClass tuples, and a root is
// kept only when its sets hold more tuples between them than it does.
func TestPlanRoots(t *testing.T) {
	rel, ids := rootRelation(t)
	fd := func(attrs ...int) []CFD { // a rule without LHS constants: it holds every tuple
		return []CFD{{LHS: NewAttrSet(attrs...), RHS: 3, Tp: NewPattern(4)}}
	}
	onB0 := func(attrs ...int) []CFD { // a rule on B = "0": it holds 8 tuples
		c := fd(attrs...)
		c[0].Tp[2] = rel.Dict(2).Encode("0")
		return c
	}
	for _, tc := range []struct {
		name string
		sets [][]CFD
		ids  []int32
		want []int
	}{
		{"near keys sharing W", [][]CFD{fd(0), fd(0, 1), onB0(0, 2), fd(1, 2)}, ids, []int{-1, 0, 0, -1}},
		{"two full sets, the third not counted", [][]CFD{fd(0, 1), fd(0, 3), onB0(0, 2)}, ids, []int{0, 0, 0}},
		{"a root holding more than its sets", [][]CFD{onB0(0, 2), onB0(0, 1, 2)}, ids, []int{-1, -1}},
		{"one full set holds what the root would", [][]CFD{fd(0, 1)}, ids, []int{-1}},
		{"no live tuple", [][]CFD{fd(0, 1), fd(0, 3)}, nil, []int{-1, -1}},
		{"a prefix of the tuples", [][]CFD{fd(0, 1), fd(0, 3)}, ids[:8], []int{0, 0}},
	} {
		if got := PlanRoots(rel, tc.sets, tc.ids); !slices.Equal(got, tc.want) {
			t.Errorf("%s: PlanRoots = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Over 40 tuples with a W of 8 values, classes of five, no root qualifies.
	wide := NewRelation(MustSchema("W", "A", "B", "E"))
	for i := range 40 {
		if err := wide.AppendRow([]string{fmt.Sprint(i % 8), "a", "b", fmt.Sprint(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := PlanRoots(wide, [][]CFD{fd(0, 1), fd(0, 3)}, ids); !slices.Equal(got, []int{-1, -1}) {
		t.Errorf("classes of five: PlanRoots = %v, want no root", got)
	}
}

// TestRefinementEdges covers what the oracles do not reach: a refinement
// needs its root's attribute in X, a root is built empty only, a one-tuple
// class is built as such, and ids the root does not hold are ignored by the
// root and its refinements alike, on delete and on a point read.
func TestRefinementEdges(t *testing.T) {
	rel, ids := rootRelation(t)
	root := NewRoot(rel, 0)
	if root.Attr() != 0 {
		t.Fatalf("Attr = %d", root.Attr())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a refinement over a set without the root's attribute must panic")
			}
		}()
		NewRefinement(root, []CFD{{LHS: NewAttrSet(1, 2), RHS: 3, Tp: NewPattern(4)}})
	}()
	ix := NewRefinement(root, []CFD{
		{LHS: NewAttrSet(0, 1), RHS: 3, Tp: NewPattern(4)},
		{LHS: NewAttrSet(0, 1), RHS: 3, Tp: Pattern{Wildcard, Wildcard, Wildcard, rel.Dict(3).Encode("0")}},
	})
	if ix.Root() != root {
		t.Fatal("Root does not return the root refined")
	}
	live := ids[1:38] // 0, 38 and 39 are held by neither; 1 is a class of one
	var s BuildScratch
	root.Build(live, &s)
	ix.Build(live, &s)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a build into a non-empty root must panic")
			}
		}()
		root.Build(live, &s)
	}()
	bad, tuples := ix.BadTuples(1), ix.Tuples(0)
	if bad == 0 || tuples != len(live) {
		t.Fatalf("the constant rule finds %d bad of %d tuples", bad, tuples)
	}
	for _, id := range []int{38, 39} {
		ix.Delete(id, nil)
		root.Delete(id)
		if got := violatedRules(ix, id); got != nil {
			t.Fatalf("tuple %d, not held: violates %v", id, got)
		}
	}
	if ix.BadTuples(1) != bad || ix.Tuples(0) != tuples || root.tuples != len(live) {
		t.Fatalf("deleting ids not held moved the counters: %d bad, %d tuples, root %d", ix.BadTuples(1), ix.Tuples(0), root.tuples)
	}
	// The one-tuple class of W = 99 is held once its tuple is.
	ix.Insert(39, nil)
	root.Insert(39)
	if got := violatedRules(ix, 39); !slices.Equal(got, []int{1}) {
		t.Fatalf("tuple 39 (E = 1 against the constant 0) violates %v, want [1]", got)
	}
	// A code past the root's classes is one no held tuple carries.
	rel.Set(38, []int32{rel.Dict(0).Encode("1000"), 0, 0, 0})
	root.Delete(38)
	ix.Delete(38, nil)
	if root.tuples != len(live)+1 {
		t.Fatalf("root holds %d tuples, want %d", root.tuples, len(live)+1)
	}
}
