package itemset

import (
	"cmp"
	"context"
	"iter"
	"slices"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/pool"
)

// ClosedSets holds the closed item sets MineClosed found, column by column:
// per set, its attribute set and its constant pattern — arity values, Wildcard
// outside the attribute set. The sets stay in the fixed-size blocks the
// search's workers wrote them into; an id names a set by its block and its
// slot there, and All lists the ids in search order. A nil *ClosedSets holds
// no sets. It is read-only once MineClosed returns, so any number of
// goroutines may read it.
type ClosedSets struct {
	arity  int
	blocks []closedBlock
	runs   []idRange // consecutive ids, in search order
	n      int
}

// closedBlock holds closedBlockSets closed sets of one worker: their
// attribute sets, and their patterns one after another in one buffer.
type closedBlock struct {
	attrs  []core.AttrSet
	values []int32 // stride arity
}

// idRange is the ids lo..hi-1.
type idRange struct{ lo, hi int32 }

// An id is a block index shifted left by closedBlockShift plus a slot.
const (
	closedBlockShift = 10
	closedBlockSets  = 1 << closedBlockShift
)

// Len returns the number of closed sets.
func (s *ClosedSets) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// All yields the id of every closed set in search order: the closure of the
// whole relation first, then each first-level branch in item order, depth
// first — the same order for every worker count.
func (s *ClosedSets) All() iter.Seq[int32] {
	return func(yield func(int32) bool) {
		if s == nil {
			return
		}
		for _, r := range s.runs {
			for id := r.lo; id < r.hi; id++ {
				if !yield(id) {
					return
				}
			}
		}
	}
}

// Attrs returns the attribute set of closed set id.
func (s *ClosedSets) Attrs(id int32) core.AttrSet {
	return s.blocks[id>>closedBlockShift].attrs[id&(closedBlockSets-1)]
}

// Pattern returns the constant pattern of closed set id, a window of the
// shared buffer that the caller must not modify.
func (s *ClosedSets) Pattern(id int32) core.Pattern {
	at := int(id&(closedBlockSets-1)) * s.arity
	return s.blocks[id>>closedBlockShift].values[at : at+s.arity : at+s.arity]
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
// scratch and its own blocks of output, and stitched in candidate order: the
// result is the sequential search's, order included, for every worker count.
// Cancellation is observed at every node; a cancelled run returns (nil,
// ctx.Err()).
func MineClosed(ctx context.Context, r *core.Relation, minsup, workers int) (*ClosedSets, error) {
	if minsup < 1 {
		minsup = 1
	}
	n := r.Size()
	if n < minsup || n == 0 {
		return nil, ctx.Err()
	}
	m := &closedMiner{ctx: ctx, r: r, minsup: minsup}

	// The root is the closure of the whole relation, the root worker's first
	// set; its candidates are the first-level branches, held in the root
	// worker's depth-0 scratch, which no branch touches (branches recurse
	// from depth 1).
	rootWorker := m.newWorker()
	all := partition.AllTids(n)
	var rootAttrs core.AttrSet
	for a := 0; a < r.Arity(); a++ {
		if v, ok := constantOn(r.Column(a), all); ok {
			rootAttrs = rootAttrs.Add(a)
			rootWorker.tp[a] = v
		}
	}
	rootTp := rootWorker.emit(rootAttrs)
	rootWorker.candidates(0, rootAttrs, all, -1)
	first := &rootWorker.levels[0]

	// A worker writes the branches it mines to its own blocks; span records
	// which of the worker's sets a branch produced, so that the branches can
	// be stitched in candidate order.
	type span struct{ worker, start, end int32 }
	ws := make([]*closedWorker, pool.Normalize(workers))
	ws[0] = rootWorker
	spans, err := pool.Map(ctx, workers, len(first.cands), func(wi, i int) span {
		w := ws[wi]
		if w == nil {
			w = m.newWorker()
			ws[wi] = w
		}
		start := w.n
		c := first.cands[i]
		w.extend(0, rootAttrs, rootTp, first.groups.Group(int(c.group)), int(c.attr), c.value)
		return span{int32(wi), start, w.n}
	})
	if err != nil {
		return nil, err
	}
	out := &ClosedSets{arity: r.Arity()}
	// A worker's blocks stay consecutive, so its k-th set has the id k plus
	// the id of its first block.
	base := make([]int32, len(ws))
	for wi, w := range ws {
		if w == nil {
			continue
		}
		// A branch cut short by cancellation still counts as completed for
		// the pool; the worker remembers why it stopped.
		if w.err != nil {
			return nil, w.err
		}
		base[wi] = int32(len(out.blocks) << closedBlockShift)
		out.blocks = append(out.blocks, w.blocks...)
		out.n += int(w.n)
	}
	out.addRun(base[0], base[0]+1)
	for _, sp := range spans {
		out.addRun(base[sp.worker]+sp.start, base[sp.worker]+sp.end)
	}
	return out, nil
}

// addRun appends the ids lo..hi-1 to the search order.
func (s *ClosedSets) addRun(lo, hi int32) {
	switch {
	case lo == hi:
	case len(s.runs) > 0 && s.runs[len(s.runs)-1].hi == lo:
		s.runs[len(s.runs)-1].hi = hi
	default:
		s.runs = append(s.runs, idRange{lo, hi})
	}
}

// closedMiner is the read-only state the workers of one MineClosed run share.
type closedMiner struct {
	ctx    context.Context
	r      *core.Relation
	minsup int
}

// closedWorker is one goroutine's scratch: a splitter, the candidate lists of
// the nodes on the current DFS path, and the blocks holding the closed sets
// of the branches it has mined.
type closedWorker struct {
	m      *closedMiner
	split  *partition.Splitter
	levels []closedLevel // levels[d]: candidates of the node at depth d
	tp     core.Pattern  // closure under construction
	blocks []closedBlock // the worker's k-th set is in blocks[k>>closedBlockShift]
	n      int32         // sets written
	err    error
}

// closedLevel holds the candidate extensions of one DFS node: the groups of
// its tid list on every attribute after its core item, and those groups as
// candidates in item order.
type closedLevel struct {
	groups partition.Groups
	splits []attrEnd // the attributes split, in order, each with its groups' end
	cands  []closedCand
}

type attrEnd struct{ attr, end int32 }

type closedCand struct {
	attr  int32
	value int32
	group int32 // index into the level's groups
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

// emit writes the closed set (attrs, w.tp) to the worker's blocks and returns
// its stored pattern.
func (w *closedWorker) emit(attrs core.AttrSet) core.Pattern {
	arity := len(w.tp)
	slot := int(w.n & (closedBlockSets - 1))
	if slot == 0 {
		w.blocks = append(w.blocks, closedBlock{
			attrs:  make([]core.AttrSet, closedBlockSets),
			values: make([]int32, closedBlockSets*arity),
		})
	}
	b := &w.blocks[len(w.blocks)-1]
	b.attrs[slot] = attrs
	tp := core.Pattern(b.values[slot*arity : (slot+1)*arity : (slot+1)*arity])
	copy(tp, w.tp)
	w.n++
	return tp
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
// Every attribute is split before the candidate list is sized, and the
// groups are reserved for their bound — every split keeps at most all of
// tids — so that neither grows attribute by attribute.
func (w *closedWorker) candidates(depth int, cAttrs core.AttrSet, tids []int32, coreAttr int) {
	lv := &w.levels[depth]
	lv.groups.Reset()
	lv.splits = lv.splits[:0]
	later := core.FullAttrSet(w.m.r.Arity()).Diff(core.FullAttrSet(coreAttr + 1)).Diff(cAttrs)
	lv.groups.Reserve(later.Len()*len(tids), later.Len()*(len(tids)/w.m.minsup))
	later.ForEach(func(a int) {
		w.split.Split(w.m.r.Column(a), tids, w.m.minsup, &lv.groups)
		lv.splits = append(lv.splits, attrEnd{int32(a), int32(lv.groups.Len())})
	})
	lv.cands = slices.Grow(lv.cands[:0], lv.groups.Len())
	g := int32(0)
	for _, end := range lv.splits {
		from := len(lv.cands)
		for ; g < end.end; g++ {
			lv.cands = append(lv.cands, closedCand{attr: end.attr, value: lv.groups.Codes[g], group: g})
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
		w.extend(depth, cAttrs, cTp, lv.groups.Group(int(c.group)), int(c.attr), c.value)
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
	w.expand(depth+1, attrs, w.emit(attrs), tids, attr)
}
