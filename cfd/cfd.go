package cfd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// CFD is a conditional functional dependency (X → A, tp) written with
// attribute names and string constants. LHSPattern[i] is the pattern entry for
// LHS[i]; entries and RHSPattern are either constants or the Wildcard "_".
type CFD struct {
	LHS        []string
	RHS        string
	LHSPattern []string
	RHSPattern string
}

// NewFD returns the CFD form of a plain functional dependency X → A: every
// pattern entry is the unnamed variable.
func NewFD(lhs []string, rhs string) CFD {
	pattern := make([]string, len(lhs))
	for i := range pattern {
		pattern[i] = Wildcard
	}
	return CFD{LHS: append([]string(nil), lhs...), RHS: rhs, LHSPattern: pattern, RHSPattern: Wildcard}
}

// IsConstant reports whether the CFD is a constant CFD (every pattern entry is
// a constant).
func (c CFD) IsConstant() bool {
	if c.RHSPattern == Wildcard {
		return false
	}
	for _, p := range c.LHSPattern {
		if p == Wildcard {
			return false
		}
	}
	return true
}

// IsVariable reports whether the CFD is a variable CFD (its RHS pattern entry
// is the unnamed variable).
func (c CFD) IsVariable() bool { return c.RHSPattern == Wildcard }

// IsFD reports whether the CFD is a plain functional dependency: every pattern
// entry, left and right, is the unnamed variable.
func (c CFD) IsFD() bool {
	if c.RHSPattern != Wildcard {
		return false
	}
	for _, p := range c.LHSPattern {
		if p != Wildcard {
			return false
		}
	}
	return true
}

// Validate checks structural well-formedness: the pattern has one entry per
// LHS attribute, attribute names are non-empty, and the RHS does not repeat an
// LHS attribute.
func (c CFD) Validate() error {
	if len(c.LHS) != len(c.LHSPattern) {
		return fmt.Errorf("cfd: %d LHS attributes but %d pattern entries", len(c.LHS), len(c.LHSPattern))
	}
	if c.RHS == "" {
		return fmt.Errorf("cfd: empty RHS attribute")
	}
	seen := make(map[string]bool, len(c.LHS))
	for _, a := range c.LHS {
		if a == "" {
			return fmt.Errorf("cfd: empty LHS attribute name")
		}
		if seen[a] {
			return fmt.Errorf("cfd: duplicate LHS attribute %q", a)
		}
		seen[a] = true
	}
	if seen[c.RHS] {
		return fmt.Errorf("cfd: RHS attribute %q also appears in the LHS (trivial CFD)", c.RHS)
	}
	return nil
}

// String renders the CFD in the paper's notation, e.g.
// "([CC,AC] -> CT, (01, 908 || MH))". Attributes are shown in the order given.
// Names and constants that would collide with the notation's separators are
// double-quoted, so the output always parses back with Parse.
func (c CFD) String() string {
	var b strings.Builder
	b.WriteString("([")
	for i, a := range c.LHS {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(quoteToken(a))
	}
	b.WriteString("] -> ")
	b.WriteString(quoteToken(c.RHS))
	b.WriteString(", (")
	for i, p := range c.LHSPattern {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteToken(p))
	}
	b.WriteString(" || ")
	b.WriteString(quoteToken(c.RHSPattern))
	b.WriteString("))")
	return b.String()
}

// Normalize returns a copy with LHS attributes (and their pattern entries)
// sorted by attribute name, so that structurally equal CFDs compare equal.
func (c CFD) Normalize() CFD {
	idx := make([]int, len(c.LHS))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return c.LHS[idx[i]] < c.LHS[idx[j]] })
	out := CFD{RHS: c.RHS, RHSPattern: c.RHSPattern}
	for _, i := range idx {
		out.LHS = append(out.LHS, c.LHS[i])
		out.LHSPattern = append(out.LHSPattern, c.LHSPattern[i])
	}
	return out
}

// Equal reports whether two CFDs are the same dependency, ignoring the order
// in which LHS attributes are listed. It allocates nothing, so a rule table
// can be searched with it entry by entry.
func (c CFD) Equal(o CFD) bool {
	if c.RHS != o.RHS || c.RHSPattern != o.RHSPattern || len(c.LHS) != len(o.LHS) {
		return false
	}
	for i := range c.LHS {
		if c.LHS[i] != o.LHS[i] || c.LHSPattern[i] != o.LHSPattern[i] {
			return c.samePairs(o)
		}
	}
	return true
}

// samePairs reports whether c and o, whose LHS lengths are equal, list the
// same (attribute, pattern entry) pairs as often each, in any order.
func (c CFD) samePairs(o CFD) bool {
	count := func(d CFD, a, p string) (n int) {
		for j := range d.LHS {
			if d.LHS[j] == a && d.LHSPattern[j] == p {
				n++
			}
		}
		return n
	}
	for i, a := range c.LHS {
		if count(c, a, c.LHSPattern[i]) != count(o, a, c.LHSPattern[i]) {
			return false
		}
	}
	return true
}

// Encode translates the CFD into the dictionary-encoded form used by the
// discovery algorithms, against the dictionaries of r. Constants absent from
// an attribute's active domain are rejected (such a CFD can never have
// positive support on r).
func Encode(r *Relation, c CFD) (core.CFD, error) {
	if err := c.Validate(); err != nil {
		return core.CFD{}, err
	}
	inner := r.Encoded()
	schema := inner.Schema()
	rhs, ok := schema.Index(c.RHS)
	if !ok {
		return core.CFD{}, fmt.Errorf("cfd: unknown RHS attribute %q", c.RHS)
	}
	lhs := core.EmptyAttrSet
	tp := core.NewPattern(schema.Arity())
	for i, name := range c.LHS {
		a, ok := schema.Index(name)
		if !ok {
			return core.CFD{}, fmt.Errorf("cfd: unknown LHS attribute %q", name)
		}
		lhs = lhs.Add(a)
		if c.LHSPattern[i] != Wildcard {
			code, ok := inner.Dict(a).Lookup(c.LHSPattern[i])
			if !ok {
				return core.CFD{}, fmt.Errorf("cfd: constant %q is not in the active domain of %s", c.LHSPattern[i], name)
			}
			tp[a] = code
		}
	}
	if c.RHSPattern != Wildcard {
		code, ok := inner.Dict(rhs).Lookup(c.RHSPattern)
		if !ok {
			return core.CFD{}, fmt.Errorf("cfd: constant %q is not in the active domain of %s", c.RHSPattern, c.RHS)
		}
		tp[rhs] = code
	}
	return core.CFD{LHS: lhs, RHS: rhs, Tp: tp}, nil
}

// Decode translates an encoded CFD back into the public representation, using
// the dictionaries of r. LHS attributes appear in schema order.
func Decode(r *Relation, c core.CFD) CFD {
	inner := r.Encoded()
	schema := inner.Schema()
	out := CFD{RHS: schema.Name(c.RHS), RHSPattern: Wildcard}
	if c.Tp[c.RHS] != core.Wildcard {
		out.RHSPattern = inner.Dict(c.RHS).Value(c.Tp[c.RHS])
	}
	c.LHS.ForEach(func(a int) {
		out.LHS = append(out.LHS, schema.Name(a))
		if c.Tp[a] == core.Wildcard {
			out.LHSPattern = append(out.LHSPattern, Wildcard)
		} else {
			out.LHSPattern = append(out.LHSPattern, inner.Dict(a).Value(c.Tp[a]))
		}
	})
	return out
}

// Satisfies reports whether the relation satisfies the CFD under the exact
// pair semantics of the paper (§2.1.2).
func (r *Relation) Satisfies(c CFD) (bool, error) {
	enc, err := Encode(r, c)
	if err != nil {
		return false, err
	}
	return core.Satisfies(r.inner, enc), nil
}

// Violations returns the indexes of tuples involved in at least one violation
// of the CFD.
func (r *Relation) Violations(c CFD) ([]int, error) {
	enc, err := Encode(r, c)
	if err != nil {
		return nil, err
	}
	return core.Violations(r.inner, enc), nil
}

// Support returns |sup(c, r)|: the number of tuples matching the CFD's pattern
// on LHS ∪ {RHS} (§2.2.2).
func (r *Relation) Support(c CFD) (int, error) {
	enc, err := Encode(r, c)
	if err != nil {
		return 0, err
	}
	return core.Support(r.inner, enc), nil
}

// IsMinimal reports whether the CFD is minimal on the relation: nontrivial,
// satisfied and left-reduced (§2.2.1).
func (r *Relation) IsMinimal(c CFD) (bool, error) {
	enc, err := Encode(r, c)
	if err != nil {
		return false, err
	}
	return core.IsMinimal(r.inner, enc), nil
}

// SortCFDs orders CFDs by their rendered text with the LHS listed by attribute
// name, Normalize().String() — so by LHS names, then the RHS name, then the
// pattern constants, as strings. It is the canonical order of rule files and
// reports (see the note on canonical orders in internal/core/cfd.go).
func SortCFDs(cfds []CFD) {
	keys := make([]string, len(cfds))
	for i, c := range cfds {
		keys[i] = c.Normalize().String()
	}
	core.SortByKeys(cfds, keys)
}

// CountClasses returns how many of the given CFDs are constant and how many
// are variable (CFDs that are neither — constant RHS with wildcard LHS entries
// — are counted as constant, following Lemma 1's normalisation).
func CountClasses(cfds []CFD) (constant, variable int) {
	for _, c := range cfds {
		if c.IsVariable() {
			variable++
		} else {
			constant++
		}
	}
	return constant, variable
}
