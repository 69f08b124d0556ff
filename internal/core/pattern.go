package core

import "strings"

// Wildcard is the encoded form of the unnamed variable "_" of a pattern tuple.
const Wildcard int32 = -1

// Pattern is a pattern tuple over the full schema: one entry per attribute,
// each either an encoded constant (>= 0) or Wildcard. Entries for attributes
// outside the CFD's LHS∪RHS are conventionally Wildcard and ignored.
type Pattern []int32

// NewPattern returns an all-wildcard pattern for a schema of the given arity.
func NewPattern(arity int) Pattern {
	p := make(Pattern, arity)
	for i := range p {
		p[i] = Wildcard
	}
	return p
}

// Clone returns a copy of the pattern.
func (p Pattern) Clone() Pattern {
	q := make(Pattern, len(p))
	copy(q, p)
	return q
}

// IsConstant reports whether every entry of p over the attributes X is a constant.
func (p Pattern) IsConstant(X AttrSet) bool {
	ok := true
	X.ForEach(func(a int) {
		if p[a] == Wildcard {
			ok = false
		}
	})
	return ok
}

// ConstAttrs returns the attributes of X on which p holds a constant.
func (p Pattern) ConstAttrs(X AttrSet) AttrSet {
	var c AttrSet
	X.ForEach(func(a int) {
		if p[a] != Wildcard {
			c = c.Add(a)
		}
	})
	return c
}

// WildcardAttrs returns the attributes of X on which p holds the unnamed variable.
func (p Pattern) WildcardAttrs(X AttrSet) AttrSet {
	return X.Diff(p.ConstAttrs(X))
}

// MatchesTuple reports whether tuple t of r matches p on the attributes X,
// i.e. t[X] ≼ p[X] in the paper's order on constants and "_".
func (p Pattern) MatchesTuple(r *Relation, t int, X AttrSet) bool {
	ok := true
	X.ForEach(func(a int) {
		if !ok {
			return
		}
		if p[a] != Wildcard && r.Value(t, a) != p[a] {
			ok = false
		}
	})
	return ok
}

// EqualOn reports whether p and q hold identical entries over the attributes X.
func (p Pattern) EqualOn(q Pattern, X AttrSet) bool {
	eq := true
	X.ForEach(func(a int) {
		if p[a] != q[a] {
			eq = false
		}
	})
	return eq
}

// MoreGeneralOrEqualOn reports whether p is more general than or equal to q on
// the attributes X: q[a] ≼ p[a] for every a in X, i.e. wherever p holds a
// constant, q holds the same constant.
func (p Pattern) MoreGeneralOrEqualOn(q Pattern, X AttrSet) bool {
	ok := true
	X.ForEach(func(a int) {
		if p[a] != Wildcard && p[a] != q[a] {
			ok = false
		}
	})
	return ok
}

// Key returns a canonical string key for the pattern restricted to X, suitable
// for use as a map key.
func (p Pattern) Key(X AttrSet) string {
	var b strings.Builder
	X.ForEach(func(a int) {
		b.WriteString(itoa(a))
		b.WriteByte('=')
		b.WriteString(itoa(int(p[a])))
		b.WriteByte(';')
	})
	return b.String()
}

// Format renders the pattern over X using the relation's dictionaries, e.g.
// "(CC=44, AC=_)". It is intended for debugging and test failure messages.
func (p Pattern) Format(r *Relation, X AttrSet) string {
	var b strings.Builder
	b.WriteByte('(')
	first := true
	X.ForEach(func(a int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(r.Schema().Name(a))
		b.WriteByte('=')
		if p[a] == Wildcard {
			b.WriteByte('_')
		} else {
			b.WriteString(r.Dict(a).Value(p[a]))
		}
	})
	b.WriteByte(')')
	return b.String()
}
