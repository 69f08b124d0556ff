package core

import (
	"testing"
	"testing/quick"
)

func newTestRelation(t *testing.T) *Relation {
	t.Helper()
	r := NewRelation(MustSchema("A", "B", "C"))
	for _, row := range [][]string{
		{"1", "x", "p"},
		{"1", "y", "p"},
		{"2", "x", "q"},
	} {
		if err := r.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestPatternMatchesTuple(t *testing.T) {
	r := newTestRelation(t)
	p := NewPattern(3)
	p[0], _ = r.Dict(0).Lookup("1")
	X := NewAttrSet(0, 1)
	if !p.MatchesTuple(r, 0, X) || !p.MatchesTuple(r, 1, X) {
		t.Error("tuples 0 and 1 should match A=1, B=_")
	}
	if p.MatchesTuple(r, 2, X) {
		t.Error("tuple 2 should not match A=1")
	}
	// Matching only consults attributes in X.
	p[2] = 999
	if !p.MatchesTuple(r, 0, X) {
		t.Error("attributes outside X must be ignored")
	}
}

func TestPatternConstAndWildcardAttrs(t *testing.T) {
	p := NewPattern(4)
	p[1] = 5
	p[3] = 0
	X := NewAttrSet(0, 1, 2, 3)
	if got := p.ConstAttrs(X); got != NewAttrSet(1, 3) {
		t.Errorf("ConstAttrs = %v", got)
	}
	if got := p.WildcardAttrs(X); got != NewAttrSet(0, 2) {
		t.Errorf("WildcardAttrs = %v", got)
	}
	if p.IsConstant(NewAttrSet(1, 3)) != true {
		t.Error("IsConstant over constant attrs should be true")
	}
	if p.IsConstant(X) {
		t.Error("IsConstant over all attrs should be false")
	}
	if !NewPattern(4).IsConstant(EmptyAttrSet) {
		t.Error("any pattern is constant over the empty attribute set")
	}
}

func TestPatternGenerality(t *testing.T) {
	X := NewAttrSet(0, 1, 2)
	general := NewPattern(3) // (_, _, _)
	specific := Pattern{4, Wildcard, 7}
	other := Pattern{5, Wildcard, 7}

	if !general.MoreGeneralOrEqualOn(specific, X) {
		t.Error("all-wildcard should be more general than any pattern")
	}
	if specific.MoreGeneralOrEqualOn(general, X) {
		t.Error("specific pattern is not more general than all-wildcard")
	}
	if specific.MoreGeneralOrEqualOn(other, X) || other.MoreGeneralOrEqualOn(specific, X) {
		t.Error("patterns with different constants are incomparable")
	}
	if !specific.MoreGeneralOrEqualOn(specific, X) {
		t.Error("a pattern is more-general-or-equal to itself")
	}
	if !specific.EqualOn(specific.Clone(), X) {
		t.Error("clone must be equal on X")
	}
}

func TestPatternKeyDistinguishes(t *testing.T) {
	X := NewAttrSet(0, 2)
	p := Pattern{1, 9, Wildcard}
	q := Pattern{1, 9, 3}
	if p.Key(X) == q.Key(X) {
		t.Error("keys must differ when patterns differ on X")
	}
	if p.Key(X) != (Pattern{1, 0, Wildcard}).Key(X) {
		t.Error("keys must ignore attributes outside X")
	}
}

func TestPatternFormat(t *testing.T) {
	r := newTestRelation(t)
	p := NewPattern(3)
	p[0], _ = r.Dict(0).Lookup("2")
	got := p.Format(r, NewAttrSet(0, 1))
	if got != "(A=2, B=_)" {
		t.Errorf("Format = %q", got)
	}
}

// TestGeneralityIsPartialOrder uses property-based testing to verify that the
// "more general" relation over random 3-attribute patterns is reflexive,
// antisymmetric (up to equality on X) and transitive.
func TestGeneralityIsPartialOrder(t *testing.T) {
	X := NewAttrSet(0, 1, 2)
	gen := func(vals [3]int8) Pattern {
		p := NewPattern(3)
		for i, v := range vals {
			if v >= 0 {
				p[i] = int32(v % 3)
			}
		}
		return p
	}
	f := func(a, b, c [3]int8) bool {
		pa, pb, pc := gen(a), gen(b), gen(c)
		if !pa.MoreGeneralOrEqualOn(pa, X) {
			return false
		}
		if pa.MoreGeneralOrEqualOn(pb, X) && pb.MoreGeneralOrEqualOn(pa, X) && !pa.EqualOn(pb, X) {
			return false
		}
		if pa.MoreGeneralOrEqualOn(pb, X) && pb.MoreGeneralOrEqualOn(pc, X) && !pa.MoreGeneralOrEqualOn(pc, X) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
