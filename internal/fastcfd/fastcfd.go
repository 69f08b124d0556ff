// Package fastcfd implements FastCFD and NaiveFast (§5 of the paper):
// depth-first discovery of minimal, k-frequent CFDs. For every right-hand-side
// attribute A and every k-frequent free item set (X, tp) it computes the
// minimal difference sets D^m_A(r_tp) and enumerates their minimal covers Y
// with the recursive FindMin procedure; each cover passing the left-reduction
// checks yields the variable CFD ([X,Y] → A, (tp, _,… ‖ _)). Constant CFDs are
// produced either inside FindMin (Step 3.a) or, as the §5.5 optimisation, by
// delegating to CFDMiner on the already-mined item sets.
//
// The two named variants of the paper differ only in the difference-set
// backend: FastCFD uses the 2-frequent closed item sets (diffset.Closed),
// NaiveFast the stripped-partition pairwise computation (diffset.Naive).
package fastcfd

import (
	"context"
	"sort"

	"repro/internal/cfdminer"
	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/itemset"
	"repro/internal/pool"
)

// Options configures a FastCFD run.
type Options struct {
	// K is the support threshold; values below 1 are treated as 1.
	K int
	// Computer selects the difference-set backend. nil selects the
	// closed-item-set backend (the paper's default FastCFD); diffset.NewNaive
	// yields the NaiveFast variant.
	Computer diffset.Computer
	// UseCFDMiner, when true, applies the §5.5 optimisation: constant CFDs are
	// taken from CFDMiner (sharing the item-set mining work) and Step 3.a of
	// FindMin is skipped. When false, constant CFDs are produced by FindMin.
	UseCFDMiner bool
	// MaxLHS, when positive, bounds the size of the left-hand side of reported
	// CFDs.
	MaxLHS int
	// VariableOnly, when true, suppresses constant CFDs entirely (used by the
	// benchmark harness to separate the two discovery costs).
	VariableOnly bool
	// Workers bounds the number of goroutines running the per-attribute
	// FindCover searches and, before them, the closed-item-set pass of the
	// prelude (which with more than one worker also overlaps the free-set
	// pass). 0 selects one worker per CPU, 1 runs sequentially. The emitted
	// sequence is identical for every worker count (results are merged in
	// right-hand-side attribute order).
	Workers int
}

// MineContext runs FastCFD, handing emit the constant CFDs first (when
// CFDMiner produces them, in canonical order) and then each right-hand-side
// attribute's CFDs as its FindCover search completes, in attribute order.
// Cancellation is observed inside the item-set passes of the prelude (per
// free item set, per closed-set search node), between the free item sets of
// the constant-CFD pass and between per-attribute FindCover searches; a
// cancelled run returns ctx.Err(). The emitted sequence is independent of
// Options.Workers.
func MineContext(ctx context.Context, r *core.Relation, opts Options, emit func(core.CFD)) error {
	k := max(opts.K, 1)
	if r.Size() < k {
		// No CFD can reach the support threshold.
		return ctx.Err()
	}
	comp := opts.Computer
	if comp == nil {
		comp = diffset.NewClosed(r)
	}
	mining, err := minePrelude(ctx, r, k, comp, opts.Workers)
	if err != nil {
		return err
	}
	f := &finder{
		r:      r,
		k:      k,
		comp:   comp,
		opts:   opts,
		mining: mining,
	}
	if opts.UseCFDMiner && !opts.VariableOnly {
		var constants []core.CFD
		err := cfdminer.MineFromItemsets(ctx, mining, cfdminer.Options{MaxLHS: opts.MaxLHS, Workers: opts.Workers},
			func(c core.CFD) { constants = append(constants, c) })
		if err != nil {
			return err
		}
		core.SortCFDs(constants)
		for _, c := range constants {
			emit(c)
		}
	}
	// Constant and variable CFDs never coincide and no two free sets (or
	// attributes) derive the same rule, so the sequence needs no global
	// deduplication.
	return pool.Stream(ctx, opts.Workers, r.Arity(),
		func(_, rhs int) []core.CFD { return f.findCover(rhs) },
		func(_ int, cfds []core.CFD) {
			for _, c := range cfds {
				emit(c)
			}
		})
}

// minePrelude runs the two passes every per-attribute search reads: the
// k-frequent free item sets and, for the closed-item-set backend, the
// 2-frequent closed item sets its difference sets come from (§5.5). The two
// are independent, so with more than one worker they run side by side — the
// closed-set pass itself fanned out over the workers — instead of the second
// being the first query's side effect inside the per-attribute pool. Both
// observe ctx; the prelude returns only after both have stopped.
func minePrelude(ctx context.Context, r *core.Relation, k int, comp diffset.Computer, workers int) (*itemset.Mining, error) {
	closed, ok := comp.(*diffset.Closed)
	if !ok {
		return itemset.MineContext(ctx, r, k)
	}
	if pool.Normalize(workers) == 1 {
		if err := closed.Prepare(ctx, 1); err != nil {
			return nil, err
		}
		return itemset.MineContext(ctx, r, k)
	}
	prepared := make(chan error, 1)
	go func() { prepared <- closed.Prepare(ctx, workers) }()
	mining, err := itemset.MineContext(ctx, r, k)
	if prepErr := <-prepared; err == nil {
		err = prepErr
	}
	if err != nil {
		return nil, err
	}
	return mining, nil
}

// finder holds the shared state of one FastCFD run.
type finder struct {
	r      *core.Relation
	k      int
	comp   diffset.Computer
	opts   Options
	mining *itemset.Mining
}

// search is the state of one FindCover run: the right-hand side, the covers
// found so far and, for the free pattern (X, tp) being searched, the
// difference sets FindMin covers.
type search struct {
	*finder
	rhs int
	out []core.CFD

	fs    *itemset.FreeSet
	diffs []core.AttrSet // D^m_A(r_tp)
	// subDiffs holds D^m_A(r_{tp[X\{B}]}) for every B in X, ascending, which
	// check (b2) of variableCFD reads for every cover found. They depend on
	// the pattern and the right-hand side only, so they are computed when the
	// pattern's first cover asks and kept; nil until then.
	subDiffs [][]core.AttrSet
}

// findCover implements FindCover(A, r, k): it loops over the k-frequent free
// item sets (in ascending size order) and emits the minimal CFDs with
// right-hand side rhs rooted at each free constant pattern.
func (f *finder) findCover(rhs int) []core.CFD {
	s := &search{finder: f, rhs: rhs}
	all := f.r.Schema().All()
	for _, fs := range f.mining.Free {
		if fs.Attrs.Has(rhs) {
			continue
		}
		if f.opts.MaxLHS > 0 && fs.Attrs.Len() > f.opts.MaxLHS {
			continue
		}
		s.fs, s.diffs, s.subDiffs = fs, f.comp.MinimalDiffSets(fs.Attrs, fs.Tp, rhs), nil
		switch {
		case len(s.diffs) == 0:
			// Step 3.a: every tuple of r_tp agrees on rhs — a constant CFD
			// candidate, unless constants are handled by CFDMiner.
			if !f.opts.UseCFDMiner && !f.opts.VariableOnly {
				if c, ok := f.constantCFD(fs, rhs); ok {
					s.out = append(s.out, c)
				}
			}
			// The all-constant-LHS variable CFD (X → A, (tp ‖ _)) also holds here
			// (its cover is empty); emit it when it is left-reduced so that the
			// output contains every minimal CFD, as CTANE does.
			s.variableCFD(core.EmptyAttrSet)
		case containsEmpty(s.diffs):
			// Some pair of r_tp tuples differs only on rhs: no CFD with this
			// constant pattern and right-hand side can hold (Step 1 of FindMin).
		default:
			s.findMin(core.EmptyAttrSet, s.diffs, all.Diff(fs.Attrs).Remove(rhs).Attrs())
		}
	}
	// Deterministic order per right-hand side.
	core.SortCFDs(s.out)
	return s.out
}

// constantCFD builds the constant CFD (X → rhs, (tp ‖ ta)) for a free pattern
// whose matching tuples all share the rhs value ta, and checks left-reduction
// by testing every immediate sub-pattern (Step 3.a of FindMin).
func (f *finder) constantCFD(fs *itemset.FreeSet, rhs int) (core.CFD, bool) {
	if len(fs.Tids) == 0 {
		return core.CFD{}, false
	}
	ta := f.r.Value(int(fs.Tids[0]), rhs)
	reduced := true
	fs.Attrs.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
		if f.constantHolds(sub, fs.Tp, rhs, ta) {
			reduced = false
			return false
		}
		return true
	})
	if !reduced {
		return core.CFD{}, false
	}
	tp := core.NewPattern(f.r.Arity())
	fs.Attrs.ForEach(func(a int) { tp[a] = fs.Tp[a] })
	tp[rhs] = ta
	return core.CFD{LHS: fs.Attrs, RHS: rhs, Tp: tp}, true
}

// constantHolds reports whether every tuple matching the constants of tp on
// attrs has value ta on rhs.
func (f *finder) constantHolds(attrs core.AttrSet, tp core.Pattern, rhs int, ta int32) bool {
	col := f.r.Column(rhs)
	for _, t := range f.r.MatchingTuples(attrs, tp) {
		if col[t] != ta {
			return false
		}
	}
	return true
}

// findMin is the recursive cover search (Step 4 of FindMin): it extends Y with
// attributes that cover at least one remaining difference set, in an order
// recomputed at every node (dynamic attribute reordering, §5.6), and emits a
// variable CFD whenever Y covers everything and passes the minimality checks.
func (s *search) findMin(y core.AttrSet, remaining []core.AttrSet, candidates []int) {
	if len(remaining) == 0 {
		s.variableCFD(y)
		return
	}
	if len(candidates) == 0 {
		return
	}
	if s.opts.MaxLHS > 0 && s.fs.Attrs.Len()+y.Len() >= s.opts.MaxLHS {
		return
	}
	type scored struct {
		attr  int
		cover int
	}
	order := make([]scored, 0, len(candidates))
	for _, a := range candidates {
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
	for i, o := range order {
		rest[i] = o.attr
	}
	for i, o := range order {
		var nextRemaining []core.AttrSet
		for _, d := range remaining {
			if !d.Has(o.attr) {
				nextRemaining = append(nextRemaining, d)
			}
		}
		s.findMin(y.Add(o.attr), nextRemaining, rest[i+1:])
	}
}

// variableCFD performs the minimality checks of Step 3.b for a cover Y of the
// difference sets of the free pattern (X, tp):
//
//	(b1) Y must be a minimal cover of D^m_A(r_tp) — no attribute of Y is
//	     redundant;
//	(b2) no constant of the pattern can be upgraded to "_": for every B in X,
//	     Y ∪ {B} must not cover D^m_A(r_{tp[X\{B}]}).
//
// When both hold it emits the variable CFD ([X,Y] → A, (tp, _,… ‖ _)).
func (s *search) variableCFD(y core.AttrSet) {
	if !diffset.IsMinimalCover(y, s.diffs) {
		return
	}
	if s.subDiffs == nil {
		s.subDiffs = make([][]core.AttrSet, 0, s.fs.Attrs.Len())
		s.fs.Attrs.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
			s.subDiffs = append(s.subDiffs, s.comp.MinimalDiffSets(sub, s.fs.Tp, s.rhs))
			return true
		})
	}
	i, upgradable := 0, false
	s.fs.Attrs.ImmediateSubsets(func(b int, _ core.AttrSet) bool {
		upgradable = diffset.Covers(y.Add(b), s.subDiffs[i])
		i++
		return !upgradable
	})
	if upgradable {
		return
	}
	tp := core.NewPattern(s.r.Arity())
	s.fs.Attrs.ForEach(func(a int) { tp[a] = s.fs.Tp[a] })
	s.out = append(s.out, core.CFD{LHS: s.fs.Attrs.Union(y), RHS: s.rhs, Tp: tp})
}

func containsEmpty(diffs []core.AttrSet) bool {
	for _, d := range diffs {
		if d.IsEmpty() {
			return true
		}
	}
	return false
}
