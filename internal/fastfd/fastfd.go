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
	"sort"

	"repro/internal/core"
	"repro/internal/diffset"
)

// MineContext hands emit, in canonical order once the search is done, the
// minimal functional dependencies of r, using the given difference-set
// backend (the closed-item-set backend when comp is nil). Cancellation is
// observed inside the closed-item-set pass that backend starts with and once
// per right-hand-side attribute; a cancelled run returns ctx.Err().
func MineContext(ctx context.Context, r *core.Relation, comp diffset.Computer, emit func(core.CFD)) error {
	if comp == nil {
		comp = diffset.NewClosed(r)
	}
	if closed, ok := comp.(*diffset.Closed); ok {
		// Otherwise the first query below would mine the closed item sets
		// under no context at all.
		if err := closed.Prepare(ctx, 1); err != nil {
			return err
		}
	}
	arity := r.Arity()
	all := r.Schema().All()
	empty := core.NewPattern(arity)
	var out []core.CFD

	for rhs := 0; rhs < arity; rhs++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		diffs := comp.MinimalDiffSets(core.EmptyAttrSet, empty, rhs)
		if len(diffs) == 0 {
			// Every pair of tuples agrees on rhs: the attribute is constant and
			// the FD with an empty left-hand side holds.
			out = append(out, core.CFD{LHS: core.EmptyAttrSet, RHS: rhs, Tp: core.NewPattern(arity)})
			continue
		}
		if containsEmpty(diffs) {
			// Some pair differs only on rhs: no FD with rhs on the right holds.
			continue
		}
		candidates := all.Remove(rhs).Attrs()
		for _, cover := range MinimalCovers(diffs, candidates) {
			out = append(out, core.CFD{LHS: cover, RHS: rhs, Tp: core.NewPattern(arity)})
		}
	}
	core.SortCFDs(out)
	for _, c := range out {
		emit(c)
	}
	return nil
}

// MinimalCovers enumerates every minimal cover of the difference sets that can
// be built from the candidate attributes, using the depth-first search with
// dynamic attribute reordering described in §5.6 of the paper. The result is
// deterministic and free of duplicates.
func MinimalCovers(diffs []core.AttrSet, candidates []int) []core.AttrSet {
	var out []core.AttrSet
	seen := make(map[core.AttrSet]bool)
	var rec func(y core.AttrSet, remaining []core.AttrSet, cands []int)
	rec = func(y core.AttrSet, remaining []core.AttrSet, cands []int) {
		if len(remaining) == 0 {
			if !seen[y] && diffset.IsMinimalCover(y, diffs) {
				seen[y] = true
				out = append(out, y)
			}
			return
		}
		if len(cands) == 0 {
			return
		}
		// Dynamic reordering: most-covering attribute first; drop attributes that
		// cover nothing (they can never be part of a minimal cover from here).
		type scored struct {
			attr  int
			cover int
		}
		order := make([]scored, 0, len(cands))
		for _, a := range cands {
			c := 0
			for _, d := range remaining {
				if d.Has(a) {
					c++
				}
			}
			if c > 0 {
				order = append(order, scored{attr: a, cover: c})
			}
		}
		sort.Slice(order, func(i, j int) bool {
			if order[i].cover != order[j].cover {
				return order[i].cover > order[j].cover
			}
			return order[i].attr < order[j].attr
		})
		rest := make([]int, len(order))
		for i, s := range order {
			rest[i] = s.attr
		}
		for i, s := range order {
			var nextRemaining []core.AttrSet
			for _, d := range remaining {
				if !d.Has(s.attr) {
					nextRemaining = append(nextRemaining, d)
				}
			}
			rec(y.Add(s.attr), nextRemaining, rest[i+1:])
		}
	}
	rec(core.EmptyAttrSet, diffs, candidates)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func containsEmpty(diffs []core.AttrSet) bool {
	for _, d := range diffs {
		if d.IsEmpty() {
			return true
		}
	}
	return false
}
