// Package ctane implements CTANE (§4 of the paper): levelwise discovery of
// minimal, k-frequent conditional functional dependencies over an
// attribute-set/pattern lattice. It extends TANE with pattern tuples: a lattice
// element is a pair (X, sp) of an attribute set and a pattern of constants and
// unnamed variables over X, and candidate CFDs (X\{A} → A, (sp[X\{A}] ‖ sp[A]))
// are validated with stripped partitions and pruned through the C+ candidate
// sets maintained across levels.
package ctane

import (
	"context"
	"sort"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/pool"
)

// Options configures a CTANE run.
type Options struct {
	// K is the support threshold: only k-frequent CFDs are reported. Values
	// below 1 are treated as 1.
	K int
	// MaxLHS, when positive, bounds the size of the left-hand side of reported
	// CFDs (and therefore the depth of the lattice traversal).
	MaxLHS int
	// Workers bounds the number of goroutines used within each lattice level
	// (candidate-set intersection and candidate-CFD validation are fanned out
	// per element, partition products per left parent of the join; the levels
	// themselves stay sequential, as each depends on the previous one). 0 selects one worker
	// per CPU, 1 runs sequentially. The discovered cover is identical for
	// every worker count.
	Workers int
	// Emit, when non-nil, switches MineContext into streaming mode: each
	// lattice level's CFDs are handed to Emit (deduplicated and in canonical
	// order within the level) as soon as the level is validated, and the
	// final return value is nil. Cancelling the context stops the traversal
	// at the next level boundary, which is how a consumer that has seen
	// enough rules aborts the remaining (deeper, more expensive) levels. The
	// emitted sequence is identical for every worker count.
	Emit func(core.CFD)
}

// Mine returns the minimal k-frequent CFDs of r discovered by CTANE.
func Mine(r *core.Relation, k int) []core.CFD {
	return MineWithOptions(r, Options{K: k})
}

// element is one node of the attribute-set/pattern lattice.
type element struct {
	attrs   core.AttrSet
	tp      core.Pattern
	part    *partition.Partition
	cplus   *candidateSet
	key     string
	constK  string // key of the constant part of the pattern
	support int    // number of tuples matching the constant part
}

// MineWithOptions runs CTANE with explicit options.
func MineWithOptions(r *core.Relation, opts Options) []core.CFD {
	out, err := MineContext(context.Background(), r, opts)
	if err != nil {
		// Unreachable: the background context is never cancelled and
		// MineContext has no other failure mode.
		panic(err)
	}
	return out
}

// MineContext runs CTANE with explicit options under a context. Cancellation
// is observed between per-element work units within a lattice level; a
// cancelled run returns (nil, ctx.Err()). The discovered cover is independent
// of Options.Workers.
func MineContext(ctx context.Context, r *core.Relation, opts Options) ([]core.CFD, error) {
	k := opts.K
	if k < 1 {
		k = 1
	}
	workers := pool.Normalize(opts.Workers)
	n := r.Size()
	arity := r.Arity()
	if n < k || arity == 0 {
		return nil, ctx.Err()
	}
	all := r.Schema().All()
	maxLevel := arity
	if opts.MaxLHS > 0 && opts.MaxLHS+1 < maxLevel {
		maxLevel = opts.MaxLHS + 1
	}

	// Tid lists of single items, by attribute and value code: the level-1
	// constant partitions and constant-part tid lists.
	allTids := partition.AllTids(n)
	itemTids := partition.ItemTids(r, allTids)
	wild := core.NewPattern(arity)
	// Cache of constant-part tid lists keyed by the constant pattern's key.
	constTids := map[string][]int32{wild.Key(core.EmptyAttrSet): allTids}

	// Virtual level-0 element: empty attribute set, one equivalence class.
	emptyElem := &element{
		attrs: core.EmptyAttrSet, tp: wild, part: partition.FromItem(allTids),
		cplus: newCandidateSet(), key: wild.Key(core.EmptyAttrSet),
		constK: wild.Key(core.EmptyAttrSet), support: n,
	}
	prevByKey := map[string]*element{emptyElem.key: emptyElem}

	// Level 1: (A, "_") for every attribute plus (A, a) for every k-frequent value.
	var level []*element
	for a := 0; a < arity; a++ {
		wp := partition.FromAttribute(r, a)
		level = append(level, &element{
			attrs: core.SingleAttr(a), tp: wild, part: wp,
			key:    wild.Key(core.SingleAttr(a)),
			constK: wild.Key(core.EmptyAttrSet), support: n,
		})
		for v, tids := range itemTids[a] {
			if len(tids) < k {
				continue
			}
			tp := wild.Clone()
			tp[a] = int32(v)
			constKey := tp.Key(core.SingleAttr(a))
			constTids[constKey] = tids
			level = append(level, &element{
				attrs: core.SingleAttr(a), tp: tp, part: partition.FromItem(tids),
				key:    constKey,
				constK: constKey, support: len(tids),
			})
		}
	}

	var out []core.CFD
	for depth := 1; len(level) > 0 && depth <= maxLevel; depth++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sortLevel(level)
		// Step 1: candidate RHS sets as intersections over immediate subsets.
		// Each element's intersection reads only the previous level, so the
		// elements fan out independently.
		if err := pool.Each(ctx, workers, len(level), func(_, i int) {
			e := level[i]
			var sets []*candidateSet
			missing := false
			e.attrs.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
				p, ok := prevByKey[e.tp.Key(sub)]
				if !ok {
					missing = true
					return false
				}
				sets = append(sets, p.cplus)
				return true
			})
			if missing {
				e.cplus = newCandidateSet()
				e.cplus.removedAttrs = all
				return
			}
			e.cplus = intersectCandidates(sets)
		}); err != nil {
			return nil, err
		}
		// Index by key and by attribute set (for sibling updates in Step 2.c).
		byKey := make(map[string]*element, len(level))
		byAttrs := make(map[core.AttrSet][]*element)
		for _, e := range level {
			byKey[e.key] = e
			byAttrs[e.attrs] = append(byAttrs[e.attrs], e)
		}
		// Step 2 pre-pass: validate the candidate CFDs of every element
		// concurrently. Validation only reads partitions, so it is safe to fan
		// out; the C+ updates of Step 2.c below stay sequential (they mutate
		// sibling elements), which keeps the output byte-identical to a
		// sequential run. The pre-pass may validate candidates that Step 2.c
		// later removes — wasted work, never a different answer — so it is
		// skipped when running on one worker.
		var validated []validation
		if workers > 1 {
			var err error
			validated, err = pool.Map(ctx, workers, len(level), func(_, i int) validation {
				e := level[i]
				var v validation
				e.attrs.ForEach(func(a int) {
					cA := e.tp[a]
					if !e.cplus.has(a, cA) {
						return
					}
					parent, ok := prevByKey[e.tp.Key(e.attrs.Remove(a))]
					if !ok {
						return
					}
					v.checked = v.checked.Add(a)
					if validCFD(parent, e, cA) {
						v.valid = v.valid.Add(a)
					}
				})
				return v
			})
			if err != nil {
				return nil, err
			}
		}
		// Step 2: emit valid candidate CFDs and update the C+ sets, in the
		// level's sorted order.
		levelStart := len(out)
		for i, e := range level {
			e.attrs.ForEach(func(a int) {
				cA := e.tp[a]
				if !e.cplus.has(a, cA) {
					return
				}
				sub := e.attrs.Remove(a)
				parent, ok := prevByKey[e.tp.Key(sub)]
				if !ok {
					return
				}
				// C+ sets only shrink, so every candidate that survives to
				// this point was still a candidate during the pre-pass.
				var valid bool
				if validated != nil && validated[i].checked.Has(a) {
					valid = validated[i].valid.Has(a)
				} else {
					valid = validCFD(parent, e, cA)
				}
				if !valid {
					return
				}
				cfdTp := core.NewPattern(arity)
				e.attrs.ForEach(func(b int) { cfdTp[b] = e.tp[b] })
				out = append(out, core.CFD{LHS: sub, RHS: a, Tp: cfdTp})
				// Step 2.c: the same RHS with a more specific LHS pattern can no
				// longer be minimal, and (as in TANE) attributes outside X cannot be
				// minimal RHS candidates for those elements either.
				for _, s := range byAttrs[e.attrs] {
					if s.tp[a] != cA {
						continue
					}
					if !e.tp.MoreGeneralOrEqualOn(s.tp, sub) {
						continue
					}
					s.cplus.removeVal(a, cA)
					all.Diff(e.attrs).ForEach(func(b int) { s.cplus.removeAttr(b) })
				}
			})
		}
		// Streaming mode: hand this level's CFDs to the consumer now. Each
		// level's CFDs have a strictly larger LHS than every earlier level's,
		// so no later level can duplicate them; the batch is deduplicated and
		// canonically ordered within the level, keeping the emitted sequence
		// identical for every worker count.
		if opts.Emit != nil {
			batch := core.DedupCFDs(out[levelStart:])
			core.SortCFDs(batch)
			for _, c := range batch {
				opts.Emit(c)
			}
			out = out[:levelStart]
		}
		// Step 3: prune elements with (conservatively detected) empty C+.
		kept := level[:0]
		for _, e := range level {
			if e.cplus.allAttrsRemoved(arity) {
				delete(byKey, e.key)
				continue
			}
			kept = append(kept, e)
		}
		level = kept
		// Step 4: generate the next level by prefix join.
		if depth == maxLevel {
			break
		}
		var err error
		level, err = generateNextLevel(ctx, r, level, byKey, constTids, itemTids, k, n, workers)
		if err != nil {
			return nil, err
		}
		prevByKey = byKey
	}

	out = core.DedupCFDs(out)
	core.SortCFDs(out)
	return out, nil
}

// validation is the pre-pass verdict on one lattice element: the right-hand
// side attributes whose candidate CFD was checked, and those found valid.
type validation struct {
	checked, valid core.AttrSet
}

// validCFD checks the candidate CFD (X\{A} → A, (sp[X\{A}] ‖ sp[A])) of a
// lattice element against its parent's partition (Step 2.b).
func validCFD(parent, e *element, cA int32) bool {
	if cA == core.Wildcard {
		return partition.RefinesRHSVariable(parent.part, e.part)
	}
	return partition.RefinesRHSConstant(parent.part, e.part)
}

// generateNextLevel performs Step 4: joins pairs of elements that agree on all
// but their largest attribute, keeps candidates whose constant part is
// k-frequent and all of whose immediate sub-elements survived pruning, and
// builds their partitions as products of the parents' partitions. The joins
// and frequency checks run sequentially (they share the constant-tid cache);
// the partition products — the expensive part — are fanned out across workers
// per left parent, each worker with its own probe: a left parent's partition
// is written into the probe table once and multiplied with all of its right
// siblings.
func generateNextLevel(
	ctx context.Context,
	r *core.Relation,
	level []*element,
	byKey map[string]*element,
	constTids map[string][]int32,
	itemTids [][][]int32,
	k, n, workers int,
) ([]*element, error) {
	type groupKey struct {
		prefix core.AttrSet
		tpKey  string
	}
	groups := make(map[groupKey][]*element)
	for _, e := range level {
		prefix := e.attrs.Remove(e.attrs.Last())
		groups[groupKey{prefix, e.tp.Key(prefix)}] = append(groups[groupKey{prefix, e.tp.Key(prefix)}], e)
	}
	// joins lists the surviving (y, joined element) pairs; the joins of one
	// left parent x are consecutive, lefts[i] naming x and where they end.
	type join struct {
		y, elem *element
	}
	type left struct {
		x   *element
		end int
	}
	var joins []join
	var lefts []left
	seen := make(map[string]bool)
	for _, group := range groups {
		for i := 0; i < len(group); i++ {
			// The join pass alone can dwarf the rest of a level on low support
			// thresholds, so observe cancellation inside it too.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			x := group[i]
			xLast := x.attrs.Last()
			first := len(joins)
			for j := 0; j < len(group); j++ {
				if i == j {
					continue
				}
				y := group[j]
				yLast := y.attrs.Last()
				if xLast >= yLast {
					continue
				}
				z := x.attrs.Union(y.attrs)
				up := x.tp.Clone()
				up[yLast] = y.tp[yLast]
				key := up.Key(z)
				if seen[key] {
					continue
				}
				// Support of the constant part (Step 4.b(ii) with the k-frequency
				// refinement of §4.2).
				constAttrs := up.ConstAttrs(z)
				constKey := up.Key(constAttrs)
				tids, ok := constTids[constKey]
				if !ok {
					if up[yLast] == core.Wildcard {
						tids = constTids[x.constK]
					} else {
						tids = holding(constTids[x.constK], r.Column(yLast), up[yLast], len(itemTids[yLast][up[yLast]]))
					}
					constTids[constKey] = tids
				}
				if len(tids) < k || len(tids) == 0 {
					continue
				}
				// Step 4.b(iii): every immediate sub-element must have survived.
				ok = true
				z.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
					if _, present := byKey[up.Key(sub)]; !present {
						ok = false
						return false
					}
					return true
				})
				if !ok {
					continue
				}
				seen[key] = true
				joins = append(joins, join{y: y, elem: &element{
					attrs: z, tp: up,
					key: key, constK: constKey, support: len(tids),
				}})
			}
			if len(joins) > first {
				lefts = append(lefts, left{x: x, end: len(joins)})
			}
		}
	}
	probes := make([]*partition.Probe, pool.Normalize(workers))
	if err := pool.Each(ctx, workers, len(lefts), func(w, i int) {
		if probes[w] == nil {
			probes[w] = partition.NewProbe(n)
		}
		probe := probes[w]
		start := 0
		if i > 0 {
			start = lefts[i-1].end
		}
		probe.Load(lefts[i].x.part)
		for _, j := range joins[start:lefts[i].end] {
			j.elem.part = probe.Product(j.y.part)
			j.elem.part.Covered = j.elem.support
		}
		probe.Unload()
	}); err != nil {
		return nil, err
	}
	next := make([]*element, len(joins))
	for i, j := range joins {
		next[i] = j.elem
	}
	return next, nil
}

// sortLevel orders a level so that, within one attribute set, more general
// patterns (fewer constants) come before more specific ones — the order Step 2
// relies on so that a general valid CFD removes its specialisations from the
// C+ sets before they are examined.
func sortLevel(level []*element) {
	sort.Slice(level, func(i, j int) bool {
		if level[i].attrs != level[j].attrs {
			return level[i].attrs < level[j].attrs
		}
		ci := level[i].tp.ConstAttrs(level[i].attrs).Len()
		cj := level[j].tp.ConstAttrs(level[j].attrs).Len()
		if ci != cj {
			return ci < cj
		}
		return level[i].key < level[j].key
	})
}

// holding returns the tuples of the ascending list tids whose value in col is
// v: the constant part's tid list extended by the item (col, v), in one pass
// over the list the left parent already holds. holders, the number of tuples
// of the whole relation holding v, bounds the result.
func holding(tids, col []int32, v int32, holders int) []int32 {
	out := make([]int32, 0, min(len(tids), holders))
	for _, t := range tids {
		if col[t] == v {
			out = append(out, t)
		}
	}
	return out
}
