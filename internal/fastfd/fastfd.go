// Package fastfd implements FastFD (Wyss, Giannella, Robertson, 2001), the
// depth-first FD discovery algorithm that FastCFD extends (§1.1, §5). For each
// right-hand-side attribute it computes the minimal difference sets of the
// relation and enumerates their minimal covers with a greedy, dynamically
// reordered depth-first search.
//
// FDs are returned as core.CFD values with all-wildcard pattern tuples.
package fastfd

import (
	"context"

	"repro/internal/core"
	"repro/internal/diffset"
)

// MineContext hands emit, in canonical order once the search is done, the
// minimal functional dependencies of r, using the given difference-set
// backend (the closed-item-set backend, built under ctx, when comp is nil).
// D(r) is computed once and restricted per right-hand-side attribute.
// Cancellation is observed inside the closed-item-set pass and once per
// right-hand-side attribute; a cancelled run returns ctx.Err().
func MineContext(ctx context.Context, r *core.Relation, comp diffset.Computer, emit func(core.CFD)) error {
	if comp == nil {
		closed, err := diffset.NewClosed(ctx, r, 1)
		if err != nil {
			return err
		}
		comp = closed
	}
	arity := r.Arity()
	all := r.Schema().All()
	diffs := comp.DiffSets(core.EmptyAttrSet, core.NewPattern(arity))
	var out []core.CFD

	for rhs := 0; rhs < arity; rhs++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// With no difference set every pair of tuples agrees on rhs, and the
		// empty cover is the FD with an empty left-hand side; with an empty
		// one some pair differs only on rhs, and no FD with rhs on the right
		// holds.
		diffset.MinimalCovers(diffset.Restrict(diffs, rhs), all.Remove(rhs).Attrs(), -1, func(cover core.AttrSet) {
			out = append(out, core.CFD{LHS: cover, RHS: rhs, Tp: core.NewPattern(arity)})
		})
	}
	core.SortCFDs(out)
	for _, c := range out {
		emit(c)
	}
	return nil
}
