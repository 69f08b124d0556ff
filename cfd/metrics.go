package cfd

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
)

// Metrics collects the interest measures of a CFD on a relation. Support and
// confidence follow the paper (§2.2.2) and its discussion of [21] (Chiang &
// Miller, "Discovering Data Quality Rules"), which proposes support,
// conviction and the χ² test as quality measures for discovered rules.
type Metrics struct {
	// MatchingLHS is the number of tuples matching the constants of the
	// left-hand-side pattern.
	MatchingLHS int
	// Support is |sup(φ, r)|: tuples matching the pattern on LHS ∪ {RHS}.
	Support int
	// SupportRatio is Support divided by the relation size (0 for an empty
	// relation).
	SupportRatio float64
	// Confidence is the largest fraction of the LHS-matching tuples that can be
	// kept while satisfying the dependency: for a constant right-hand side, the
	// fraction carrying the required constant; for a variable right-hand side,
	// the fraction remaining after keeping the majority RHS value of every
	// LHS-group. It is 1 exactly when the relation satisfies the CFD (and 1 by
	// convention when no tuple matches the LHS).
	Confidence float64
	// Conviction is the association-rule conviction of a constant-RHS CFD:
	// (1 − P(RHS value)) / (1 − Confidence), +Inf for exact rules and NaN for
	// variable-RHS CFDs (where the measure is undefined).
	Conviction float64
	// ChiSquare is the χ² statistic of the 2×2 contingency table
	// (matches LHS pattern) × (carries the RHS constant) for constant-RHS CFDs,
	// and NaN for variable-RHS CFDs.
	ChiSquare float64
}

// MetricsOf computes the interest measures of the CFD on the relation.
func (r *Relation) MetricsOf(c CFD) (Metrics, error) {
	enc, err := Encode(r, c)
	if err != nil {
		return Metrics{}, err
	}
	n := r.Size()
	inner := r.Encoded()

	m := Metrics{
		MatchingLHS: inner.CountMatching(enc.LHS, enc.Tp),
		Support:     core.Support(inner, enc),
	}
	if n > 0 {
		m.SupportRatio = float64(m.Support) / float64(n)
	}

	rhsConst := enc.Tp[enc.RHS]
	switch {
	case m.MatchingLHS == 0:
		m.Confidence = 1
	case rhsConst != core.Wildcard:
		m.Confidence = float64(m.Support) / float64(m.MatchingLHS)
	default:
		m.Confidence = variableConfidence(inner, enc, m.MatchingLHS)
	}

	if rhsConst != core.Wildcard {
		m.Conviction = conviction(inner, enc, m.Confidence, n)
		m.ChiSquare = chiSquare(inner, enc, m, n)
	} else {
		m.Conviction = math.NaN()
		m.ChiSquare = math.NaN()
	}
	return m, nil
}

// Confidence is a convenience wrapper returning only the confidence measure.
func (r *Relation) Confidence(c CFD) (float64, error) {
	m, err := r.MetricsOf(c)
	if err != nil {
		return 0, err
	}
	return m.Confidence, nil
}

// variableConfidence computes the keep-the-majority confidence of a
// variable-RHS CFD: within each group of LHS-matching tuples sharing the same
// LHS values, only the most common RHS value can be kept.
func variableConfidence(r *core.Relation, c core.CFD, matching int) float64 {
	attrs := c.LHS.Attrs()
	groups := make(map[string]map[int32]int)
	var key []byte
	for t := 0; t < r.Size(); t++ {
		if !c.Tp.MatchesTuple(r, t, c.LHS) {
			continue
		}
		key = key[:0]
		for _, a := range attrs {
			v := r.Value(t, a)
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		g := groups[string(key)]
		if g == nil {
			g = make(map[int32]int)
			groups[string(key)] = g
		}
		g[r.Value(t, c.RHS)]++
	}
	kept := 0
	for _, g := range groups {
		best := 0
		for _, cnt := range g {
			if cnt > best {
				best = cnt
			}
		}
		kept += best
	}
	return float64(kept) / float64(matching)
}

// conviction computes the association-rule conviction of a constant-RHS CFD.
func conviction(r *core.Relation, c core.CFD, confidence float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	rhsCount := 0
	col := r.Column(c.RHS)
	for _, v := range col {
		if v == c.Tp[c.RHS] {
			rhsCount++
		}
	}
	pRHS := float64(rhsCount) / float64(n)
	if confidence >= 1 {
		return math.Inf(1)
	}
	return (1 - pRHS) / (1 - confidence)
}

// chiSquare computes the χ² statistic of the 2×2 table (LHS match × RHS value)
// for a constant-RHS CFD.
func chiSquare(r *core.Relation, c core.CFD, m Metrics, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	rhsCount := 0
	col := r.Column(c.RHS)
	for _, v := range col {
		if v == c.Tp[c.RHS] {
			rhsCount++
		}
	}
	// Observed counts.
	a := float64(m.Support)                 // LHS match, RHS value
	b := float64(m.MatchingLHS - m.Support) // LHS match, other value
	cc := float64(rhsCount - m.Support)     // no match, RHS value
	d := float64(n - m.MatchingLHS - (rhsCount - m.Support))
	total := float64(n)
	rowMatch := a + b
	rowOther := cc + d
	colVal := a + cc
	colOther := b + d
	chi := 0.0
	for _, cell := range []struct{ obs, rowTot, colTot float64 }{
		{a, rowMatch, colVal}, {b, rowMatch, colOther},
		{cc, rowOther, colVal}, {d, rowOther, colOther},
	} {
		expected := cell.rowTot * cell.colTot / total
		if expected > 0 {
			diff := cell.obs - expected
			chi += diff * diff / expected
		}
	}
	return chi
}

// RankByInterest orders CFDs by decreasing support and, within equal support,
// by decreasing confidence, the remaining ties by the rules' canonical text.
// It is a simple helper for presenting discovered rules to a reviewer,
// following the spirit of the interest measures of [21].
func (r *Relation) RankByInterest(cfds []CFD) ([]CFD, error) {
	type scored struct {
		c          CFD
		support    int
		confidence float64
		key        string
	}
	all := make([]scored, 0, len(cfds))
	for _, c := range cfds {
		m, err := r.MetricsOf(c)
		if err != nil {
			return nil, fmt.Errorf("ranking %s: %w", c, err)
		}
		all = append(all, scored{c: c, support: m.Support, confidence: m.Confidence, key: c.Normalize().String()})
	}
	slices.SortStableFunc(all, func(x, y scored) int {
		return cmp.Or(
			cmp.Compare(y.support, x.support),
			cmp.Compare(y.confidence, x.confidence),
			cmp.Compare(x.key, y.key),
		)
	})
	out := make([]CFD, len(all))
	for i, s := range all {
		out[i] = s.c
	}
	return out, nil
}
