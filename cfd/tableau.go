package cfd

import (
	"fmt"
	"sort"
	"strings"
)

// TableauCFD is a CFD with a pattern tableau (§2.3 of the paper): one embedded
// FD X → A together with a set of pattern tuples. It is equivalent to the set
// of single-pattern CFDs {(X → A, tp) | tp ∈ Patterns}.
type TableauCFD struct {
	LHS []string
	RHS string
	// Patterns holds one row per pattern tuple: len(LHS) entries for the LHS
	// followed by one entry for the RHS.
	Patterns [][]string
}

// String renders the tableau CFD with one pattern tuple per line.
func (t TableauCFD) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "([%s] -> %s)", strings.Join(t.LHS, ","), t.RHS)
	for _, p := range t.Patterns {
		fmt.Fprintf(&b, "\n  (%s || %s)", strings.Join(p[:len(t.LHS)], ", "), p[len(t.LHS)])
	}
	return b.String()
}

// CFDs expands the tableau back into single-pattern CFDs.
func (t TableauCFD) CFDs() []CFD {
	out := make([]CFD, 0, len(t.Patterns))
	for _, p := range t.Patterns {
		out = append(out, CFD{
			LHS:        append([]string(nil), t.LHS...),
			RHS:        t.RHS,
			LHSPattern: append([]string(nil), p[:len(t.LHS)]...),
			RHSPattern: p[len(t.LHS)],
		})
	}
	return out
}

// BuildTableaux groups single-pattern CFDs by their embedded FD (the pair of
// LHS attribute set and RHS attribute) and collects their pattern tuples into
// pattern tableaux, following the equivalence of §2.3. Pattern rows are sorted
// for deterministic output.
func BuildTableaux(cfds []CFD) []TableauCFD {
	type key struct {
		lhs string
		rhs string
	}
	groups := make(map[key]*TableauCFD)
	var order []key
	for _, c := range cfds {
		n := c.Normalize()
		k := key{lhs: strings.Join(n.LHS, ","), rhs: n.RHS}
		t, ok := groups[k]
		if !ok {
			t = &TableauCFD{LHS: n.LHS, RHS: n.RHS}
			groups[k] = t
			order = append(order, k)
		}
		row := append(append([]string(nil), n.LHSPattern...), n.RHSPattern)
		t.Patterns = append(t.Patterns, row)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].rhs != order[j].rhs {
			return order[i].rhs < order[j].rhs
		}
		return order[i].lhs < order[j].lhs
	})
	out := make([]TableauCFD, 0, len(order))
	for _, k := range order {
		t := groups[k]
		sort.Slice(t.Patterns, func(i, j int) bool {
			return strings.Join(t.Patterns[i], "\x00") < strings.Join(t.Patterns[j], "\x00")
		})
		out = append(out, *t)
	}
	return out
}

// TableauSupport returns the support of the tableau CFD on the relation, which
// the paper defines as the minimum support over its pattern tuples (§2.3).
// A tableau without patterns has support 0.
func (r *Relation) TableauSupport(t TableauCFD) (int, error) {
	if len(t.Patterns) == 0 {
		return 0, nil
	}
	minSup := -1
	for _, c := range t.CFDs() {
		s, err := r.Support(c)
		if err != nil {
			return 0, err
		}
		if minSup < 0 || s < minSup {
			minSup = s
		}
	}
	return minSup, nil
}
