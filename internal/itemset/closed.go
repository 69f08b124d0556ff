package itemset

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/pool"
)

// ClosedPattern is a closed item set found by MineClosed: its attributes, the
// constant pattern over them, and the number of supporting tuples.
type ClosedPattern struct {
	Attrs core.AttrSet
	Tp    core.Pattern
	Count int
}

// Key returns the canonical key of the closed pattern's item set.
func (c ClosedPattern) Key() string { return c.Tp.Key(c.Attrs) }

// ContainsItems reports whether the closed pattern contains every item of
// (attrs, tp), i.e. it agrees with tp on all of attrs.
func (c ClosedPattern) ContainsItems(attrs core.AttrSet, tp core.Pattern) bool {
	if !attrs.SubsetOf(c.Attrs) {
		return false
	}
	ok := true
	attrs.ForEach(func(a int) {
		if c.Tp[a] != tp[a] {
			ok = false
		}
	})
	return ok
}

// MineClosed enumerates every closed item set of r with support at least
// minsup, using an LCM-style depth-first search with prefix-preserving closure
// extension. It is the substrate of FastCFD's difference-set optimisation
// (§5.5): the agree set of any pair of tuples is a closed item set with
// support ≥ 2, so the 2-frequent closed item sets determine every minimal
// difference set.
//
// Items are ordered by attribute, then value. A node's candidate extensions
// are the items after its core item that at least minsup of its tuples share,
// found by one counting split of its tid list per attribute. The subtrees
// under the root's candidates are independent, so they are mined on up to
// workers goroutines (0 = one per CPU, 1 = sequential), each with its own
// scratch, and concatenated in candidate order: the result is the sequential
// search's, order included, for every worker count. Cancellation is observed
// at every node; a cancelled run returns (nil, ctx.Err()).
func MineClosed(ctx context.Context, r *core.Relation, minsup, workers int) ([]ClosedPattern, error) {
	if minsup < 1 {
		minsup = 1
	}
	n := r.Size()
	if n < minsup || n == 0 {
		return nil, ctx.Err()
	}
	m := &closedMiner{ctx: ctx, r: r, minsup: minsup}

	// The root is the closure of the whole relation; its candidates are the
	// first-level branches, held in the root worker's depth-0 scratch, which
	// no branch touches (branches recurse from depth 1).
	rootWorker := m.newWorker()
	all := partition.AllTids(n)
	root := ClosedPattern{Tp: core.NewPattern(r.Arity()), Count: n}
	for a := 0; a < r.Arity(); a++ {
		if v, ok := constantOn(r.Column(a), all); ok {
			root.Attrs = root.Attrs.Add(a)
			root.Tp[a] = v
		}
	}
	rootWorker.candidates(0, root.Attrs, all, -1)
	first := &rootWorker.levels[0]

	// A worker appends the branches it mines to one growing output; span
	// records where each branch landed so they can be stitched in candidate
	// order.
	type span struct{ worker, start, end int }
	ws := make([]*closedWorker, pool.Normalize(workers))
	ws[0] = rootWorker
	spans, err := pool.Map(ctx, workers, len(first.cands), func(wi, i int) span {
		w := ws[wi]
		if w == nil {
			w = m.newWorker()
			ws[wi] = w
		}
		start := len(w.out)
		c := first.cands[i]
		w.extend(0, root.Attrs, root.Tp, first.groups.Group(c.group), c.attr, c.value)
		return span{wi, start, len(w.out)}
	})
	if err != nil {
		return nil, err
	}
	total := 1
	for _, w := range ws {
		if w == nil {
			continue
		}
		// A branch cut short by cancellation still counts as completed for
		// the pool; the worker remembers why it stopped.
		if w.err != nil {
			return nil, w.err
		}
		total += len(w.out)
	}
	out := make([]ClosedPattern, 1, total)
	out[0] = root
	for _, sp := range spans {
		out = append(out, ws[sp.worker].out[sp.start:sp.end]...)
	}
	return out, nil
}

// closedMiner is the read-only state the workers of one MineClosed run share.
type closedMiner struct {
	ctx    context.Context
	r      *core.Relation
	minsup int
}

// closedWorker is one goroutine's scratch: a splitter, the candidate lists of
// the nodes on the current DFS path, and the closed sets of the branches it
// has mined.
type closedWorker struct {
	m      *closedMiner
	split  *partition.Splitter
	levels []closedLevel // levels[d]: candidates of the node at depth d
	tp     core.Pattern  // closure under construction
	arena  []int32       // emitted patterns are carved from chunks, not allocated one by one
	out    []ClosedPattern
	err    error
}

// closedLevel holds the candidate extensions of one DFS node: the groups of
// its tid list on every attribute after its core item, and those groups as
// candidates in item order.
type closedLevel struct {
	groups partition.Groups
	cands  []closedCand
}

type closedCand struct {
	attr  int
	value int32
	group int // index into the level's groups
}

func (m *closedMiner) newWorker() *closedWorker {
	arity := m.r.Arity()
	return &closedWorker{
		m:     m,
		split: partition.NewSplitter(partition.MaxDomain(m.r)),
		// Every level of the search adds an attribute to the closure.
		levels: make([]closedLevel, arity+1),
		tp:     core.NewPattern(arity),
	}
}

// constantOn reports whether every tuple of tids (non-empty) holds the same
// value in col, and that value.
func constantOn(col, tids []int32) (int32, bool) {
	v := col[tids[0]]
	for _, t := range tids[1:] {
		if col[t] != v {
			return 0, false
		}
	}
	return v, true
}

// candidates fills levels[depth] with the extensions of the node (cAttrs,
// tids) whose core item is on attribute coreAttr: items on later attributes
// outside the closure that at least minsup of tids share, in item order.
func (w *closedWorker) candidates(depth int, cAttrs core.AttrSet, tids []int32, coreAttr int) {
	lv := &w.levels[depth]
	lv.groups.Reset()
	lv.cands = lv.cands[:0]
	for a := coreAttr + 1; a < w.m.r.Arity(); a++ {
		if cAttrs.Has(a) {
			continue
		}
		from, g := len(lv.cands), lv.groups.Len()
		w.split.Split(w.m.r.Column(a), tids, w.m.minsup, &lv.groups)
		for ; g < lv.groups.Len(); g++ {
			lv.cands = append(lv.cands, closedCand{attr: a, value: lv.groups.Codes[g], group: g})
		}
		slices.SortFunc(lv.cands[from:], func(x, y closedCand) int { return cmp.Compare(x.value, y.value) })
	}
}

// expand mines the subtree under the closed set (cAttrs, cTp) with tid list
// tids, reached by extending its parent with an item on attribute coreAttr.
func (w *closedWorker) expand(depth int, cAttrs core.AttrSet, cTp core.Pattern, tids []int32, coreAttr int) {
	if w.err = w.m.ctx.Err(); w.err != nil {
		return
	}
	w.candidates(depth, cAttrs, tids, coreAttr)
	lv := &w.levels[depth]
	for _, c := range lv.cands {
		w.extend(depth, cAttrs, cTp, lv.groups.Group(c.group), c.attr, c.value)
	}
}

// extend closes the tid list of one candidate extension of the node (cAttrs,
// cTp) at the given depth and, if the closure is prefix-preserving — it adds
// no item ordered before the extension item, i.e. no attribute before attr —
// emits it and mines its subtree.
func (w *closedWorker) extend(depth int, cAttrs core.AttrSet, cTp core.Pattern, tids []int32, attr int, value int32) {
	if w.err != nil {
		return
	}
	attrs := cAttrs.Add(attr)
	copy(w.tp, cTp)
	w.tp[attr] = value
	for b := 0; b < len(w.tp); b++ {
		if attrs.Has(b) {
			continue
		}
		v, ok := constantOn(w.m.r.Column(b), tids)
		if !ok {
			continue
		}
		if b < attr {
			return
		}
		attrs = attrs.Add(b)
		w.tp[b] = v
	}
	if len(w.arena) < len(w.tp) {
		w.arena = make([]int32, 256*len(w.tp))
	}
	tp := core.Pattern(w.arena[:len(w.tp):len(w.tp)])
	w.arena = w.arena[len(w.tp):]
	copy(tp, w.tp)
	w.out = append(w.out, ClosedPattern{Attrs: attrs, Tp: tp, Count: len(tids)})
	w.expand(depth+1, attrs, tp, tids, attr)
}
