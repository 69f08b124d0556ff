// Package tane implements TANE (Huhtala et al., 1999), the levelwise algorithm
// for discovering minimal functional dependencies that CTANE extends. It is
// included both as the classical baseline the paper builds on (§1.1) and for
// use in tests and benchmarks that compare FD discovery with CFD discovery.
//
// FDs are returned as core.CFD values with all-wildcard pattern tuples.
package tane

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/partition"
)

// element is one node of the attribute-set lattice: an attribute set, its
// stripped partition, and the candidate RHS set C+.
type element struct {
	attrs core.AttrSet
	part  partition.Partition
	cplus core.AttrSet
}

// MineContext hands emit, in canonical order once the traversal is done, the
// minimal functional dependencies X -> A that hold on r, expressed as CFDs
// with all-wildcard patterns. Dependencies with an empty left-hand side
// (constant attributes) are included. Cancellation is observed once per
// lattice level; a cancelled run returns ctx.Err().
func MineContext(ctx context.Context, r *core.Relation, emit func(core.CFD)) error {
	arity := r.Arity()
	all := r.Schema().All()
	n := r.Size()
	var out []core.CFD

	found := func(lhs core.AttrSet, rhs int) {
		out = append(out, core.CFD{LHS: lhs, RHS: rhs, Tp: core.NewPattern(arity)})
	}

	// Virtual empty-set element: one equivalence class holding every tuple.
	root := partition.FromItem(partition.AllTids(n))
	prev := map[core.AttrSet]*element{
		core.EmptyAttrSet: {attrs: core.EmptyAttrSet, part: root, cplus: all},
	}

	// Scratch reused by every partition product.
	refiner := partition.NewRefiner(r)

	// Level 1.
	level := make([]*element, 0, arity)
	for a := 0; a < arity; a++ {
		level = append(level, &element{attrs: core.SingleAttr(a), part: partition.FromAttribute(root, a, refiner)})
	}

	for len(level) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		sort.Slice(level, func(i, j int) bool { return level[i].attrs < level[j].attrs })
		byAttrs := make(map[core.AttrSet]*element, len(level))
		for _, e := range level {
			byAttrs[e.attrs] = e
		}
		// Step 1: candidate RHS sets.
		for _, e := range level {
			c := all
			e.attrs.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
				parent, ok := prev[sub]
				if !ok {
					c = core.EmptyAttrSet
					return false
				}
				c = c.Intersect(parent.cplus)
				return true
			})
			e.cplus = c
		}
		// Step 2: dependency checks.
		for _, e := range level {
			candidates := e.attrs.Intersect(e.cplus)
			candidates.ForEach(func(a int) {
				parent, ok := prev[e.attrs.Remove(a)]
				if !ok {
					return
				}
				if parent.part.NumClasses() == e.part.NumClasses() {
					found(e.attrs.Remove(a), a)
					e.cplus = e.cplus.Remove(a)
					e.cplus = e.cplus.Diff(all.Diff(e.attrs))
				}
			})
		}
		// Step 3: prune elements with empty C+.
		kept := level[:0]
		for _, e := range level {
			if !e.cplus.IsEmpty() {
				kept = append(kept, e)
			} else {
				delete(byAttrs, e.attrs)
			}
		}
		level = kept
		// Step 4: generate the next level by prefix join: two sets join iff they
		// share everything but their largest attribute, so their product is
		// either refined by the other's; the one storing fewer tuples is scanned.
		// The products go to a new arena, which dies with the level they form.
		refiner.NewArena()
		groups := make(map[core.AttrSet][]*element)
		for _, e := range level {
			prefix := e.attrs.Remove(e.attrs.Last())
			groups[prefix] = append(groups[prefix], e)
		}
		var next []*element
		for _, group := range groups {
			for i := 0; i < len(group); i++ {
				x := group[i]
				for j := i + 1; j < len(group); j++ {
					y := group[j]
					z := x.attrs.Union(y.attrs)
					ok := true
					z.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
						if _, present := byAttrs[sub]; !present {
							ok = false
							return false
						}
						return true
					})
					if !ok {
						continue
					}
					small, by := x, y
					if y.part.SumSizes() < x.part.SumSizes() {
						small, by = y, x
					}
					part := refiner.Refine(small.part, by.attrs.Last(), core.Wildcard)
					part.Covered = n
					next = append(next, &element{attrs: z, part: part})
				}
			}
		}
		prev = byAttrs
		level = next
	}

	core.SortCFDs(out)
	for _, c := range out {
		emit(c)
	}
	return nil
}
