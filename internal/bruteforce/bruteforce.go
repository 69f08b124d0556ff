// Package bruteforce enumerates canonical covers of CFDs by exhaustive search.
// It exists purely as a test oracle: on tiny relations it produces the exact
// set of minimal k-frequent CFDs against which CFDMiner, CTANE, FastCFD and
// NaiveFast are validated.
package bruteforce

import (
	"context"

	"repro/internal/core"
)

// Mine returns every minimal k-frequent CFD of r: all constant CFDs and all
// variable CFDs that are nontrivial, satisfied, left-reduced and k-frequent.
// Minimal CFDs with a constant right-hand side always have an all-constant
// left-hand side pattern (Lemma 1 of the paper), so only those are enumerated.
func Mine(r *core.Relation, k int) []core.CFD {
	out := append(MineConstant(r, k), MineVariable(r, k)...)
	core.SortCFDs(out)
	return out
}

// MineContext hands emit the cover of Mine, under a cancellation context
// observed before and after the enumeration; a cancelled run returns
// ctx.Err(). The oracle stays intentionally simple — it is only ever run on
// tiny relations.
func MineContext(ctx context.Context, r *core.Relation, k int, emit func(core.CFD)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	out := Mine(r, k)
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, c := range out {
		emit(c)
	}
	return nil
}

// MineConstant returns every minimal k-frequent constant CFD of r.
func MineConstant(r *core.Relation, k int) []core.CFD {
	var out []core.CFD
	arity := r.Arity()
	all := r.Schema().All()
	for rhs := 0; rhs < arity; rhs++ {
		lhsSpace := all.Remove(rhs)
		lhsSpace.Subsets(func(X core.AttrSet) bool {
			forEachConstantPattern(r, X, func(tp core.Pattern) {
				for a := 0; a < r.DomainSize(rhs); a++ {
					cand := tp.Clone()
					cand[rhs] = int32(a)
					c := core.CFD{LHS: X, RHS: rhs, Tp: cand}
					if core.Support(r, c) < k {
						continue
					}
					if !core.Satisfies(r, c) || !core.IsLeftReduced(r, c) {
						continue
					}
					out = append(out, c)
				}
			})
			return true
		})
	}
	core.SortCFDs(out)
	return out
}

// MineVariable returns every minimal k-frequent variable CFD of r.
func MineVariable(r *core.Relation, k int) []core.CFD {
	var out []core.CFD
	arity := r.Arity()
	all := r.Schema().All()
	for rhs := 0; rhs < arity; rhs++ {
		lhsSpace := all.Remove(rhs)
		lhsSpace.Subsets(func(X core.AttrSet) bool {
			forEachPattern(r, X, func(tp core.Pattern) {
				c := core.CFD{LHS: X, RHS: rhs, Tp: tp.Clone()}
				if core.Support(r, c) < k {
					return
				}
				if !core.Satisfies(r, c) || !core.IsLeftReduced(r, c) {
					return
				}
				out = append(out, c)
			})
			return true
		})
	}
	core.SortCFDs(out)
	return out
}

// forEachConstantPattern enumerates every all-constant pattern over X drawn
// from the active domains of r.
func forEachConstantPattern(r *core.Relation, X core.AttrSet, fn func(core.Pattern)) {
	attrs := X.Attrs()
	tp := core.NewPattern(r.Arity())
	var rec func(i int)
	rec = func(i int) {
		if i == len(attrs) {
			fn(tp)
			return
		}
		a := attrs[i]
		for v := 0; v < r.DomainSize(a); v++ {
			tp[a] = int32(v)
			rec(i + 1)
		}
		tp[a] = core.Wildcard
	}
	rec(0)
}

// forEachPattern enumerates every pattern over X whose entries are either the
// unnamed variable or a constant from the active domain of the attribute.
func forEachPattern(r *core.Relation, X core.AttrSet, fn func(core.Pattern)) {
	attrs := X.Attrs()
	tp := core.NewPattern(r.Arity())
	var rec func(i int)
	rec = func(i int) {
		if i == len(attrs) {
			fn(tp)
			return
		}
		a := attrs[i]
		tp[a] = core.Wildcard
		rec(i + 1)
		for v := 0; v < r.DomainSize(a); v++ {
			tp[a] = int32(v)
			rec(i + 1)
		}
		tp[a] = core.Wildcard
	}
	rec(0)
}
