// Package ctane implements CTANE (§4 of the paper): levelwise discovery of
// minimal, k-frequent conditional functional dependencies over an
// attribute-set/pattern lattice. It extends TANE with pattern tuples: a lattice
// element is a pair (X, sp) of an attribute set and a pattern of constants and
// unnamed variables over X, and candidate CFDs (X\{A} → A, (sp[X\{A}] ‖ sp[A]))
// are validated with stripped partitions and pruned through the C+ candidate
// sets maintained across levels. Restricted to the items (A, "_"), the
// lattice is TANE's (Huhtala et al., 1999): MineFDs runs TANE so.
package ctane

import (
	"cmp"
	"context"
	"math/bits"
	"slices"

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
	// Workers bounds the number of goroutines used within each lattice level:
	// candidate-set intersection and candidate-CFD validation are fanned out
	// per run of elements with equal attribute sets, the join per run of
	// prefixes with equal attribute sets, and the join's partition products
	// per element. The levels themselves stay sequential, as each depends on
	// the previous one. 0 selects one worker per CPU, 1 runs sequentially.
	// The emitted sequence is identical for every worker count.
	Workers int
}

// element is one node of the attribute-set/pattern lattice. Its pattern is
// that of its constant part: the constants, wildcard on every other
// attribute. It reaches its immediate sub-elements — the elements one
// attribute smaller that carry the same pattern — and the elements joined
// on it by pointer, so no step of the traversal looks an element up by a
// rendered key. A level's elements live in its workers' blocks
// (elementBlocks), and its partitions in the refiners' arenas of that level.
type element struct {
	attrs    core.AttrSet
	lastItem uint64     // its largest attribute and the value there, packed by item
	cp       *constPart // the constants of the pattern
	part     partition.Partition
	cplus    candidateSet
	// parents[i] is the sub-element without the i-th smallest attribute of
	// attrs; the last one is the prefix the element was joined on. Cleared
	// once the join has read them, which is what lets the level below be
	// collected.
	parents []*element
	// kids lists the elements of the next level whose prefix this element
	// is, sorted by their last item (see item), the ones Step 3 pruned
	// included: one group of the prefix join.
	kids []*element
}

// pruned reports whether Step 3 pruned the element.
func (e *element) pruned() bool { return e.attrs == 0 }

// tp returns the element's pattern.
func (e *element) tp() core.Pattern { return e.cp.tp }

// prefix is the sub-element without the largest attribute.
func (e *element) prefix() *element { return e.parents[len(e.parents)-1] }

// item packs the item (attr, val) the way kids are ordered: by attribute,
// then by value with the wildcard first. (pair sorts the wildcard last.)
func item(attr int, val int32) uint64 {
	return uint64(attr)<<32 | uint64(uint32(val-core.Wildcard))
}

// kid returns the kid whose last item is it, packed by item, or nil if
// there is none or it was pruned.
func (e *element) kid(it uint64) *element {
	lo, hi := 0, len(e.kids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch c := e.kids[m]; {
		case c.lastItem == it:
			if c.pruned() {
				return nil
			}
			return c
		case c.lastItem < it:
			lo = m + 1
		default:
			hi = m
		}
	}
	return nil
}

// elementBlock is the number of elements one block holds.
const elementBlock = 256

// elementBlocks hands out the elements of one level, and their parents and
// kids slices, from blocks: a level is a few large allocations that die
// together rather than several objects per element.
type elementBlocks struct {
	elems         []element
	parents, kids []*element
}

// alloc returns a new element of attrs and constant part cp with a parents
// slice of one link per attribute, for the caller to fill.
func (b *elementBlocks) alloc(attrs core.AttrSet, cp *constPart) *element {
	if len(b.elems) == 0 {
		b.elems = make([]element, elementBlock)
	}
	e := &b.elems[0]
	b.elems = b.elems[1:]
	last := attrs.Last()
	e.attrs, e.cp, e.lastItem = attrs, cp, item(last, cp.tp[last])
	e.parents = carve(&b.parents, attrs.Len())
	return e
}

// carve returns the next n links of *block, for the caller to fill, from a
// new block if it holds fewer. Parents and kids take separate blocks: a
// block of parents, which are cleared once read, would otherwise be kept
// alive by the kids in it, and with it the elements its stale links reach.
func carve(block *[]*element, n int) []*element {
	if len(*block) < n {
		*block = make([]*element, max(n, 8*elementBlock))
	}
	s := (*block)[:n:n]
	*block = (*block)[n:]
	return s
}

// constPart is a k-frequent constant pattern. Elements whose patterns have
// the same constants share one.
type constPart struct {
	tp     core.Pattern // the constants, wildcard on every other attribute
	consts int          // number of constants of tp
	tids   []int32      // the tuples matching tp, ascending: the part's support
}

// heldTids tallies what the partitions of lattice elements hold, from their
// lengths: the tids of their stored classes and the classes' end offsets.
type heldTids struct {
	tids, classEnds int
}

// held returns the tally of the elements' partitions.
func held(elems []*element) heldTids {
	var h heldTids
	for _, e := range elems {
		h.tids += e.part.SumSizes()
		h.classEnds += e.part.Stripped()
	}
	return h
}

// joinTally is what the three levels a join touches hold once its products
// are built: the level below the joined one (prev), the joined level and
// the generated one (next).
type joinTally struct {
	prev, level, next heldTids
}

// lattice is the state of one CTANE run: the level being worked on and the
// survivors of the one below it.
type lattice struct {
	r        *core.Relation
	k        int // at least 1, as MineContext clamps it
	workers  int
	refiners []*partition.Refiner // one per worker
	itemTids [][][]int32
	root     constPart // the empty constant part

	prev  []*element // Step-3 survivors of the previous level, in level order
	level []*element
	// tally has every advance append to joins what the levels it touches
	// hold; tests set it.
	tally bool
	joins []joinTally
}

// newLattice builds the virtual level 0 — the empty attribute set, one
// equivalence class — and level 1: (A, "_") for every attribute plus, unless
// wildcardOnly, (A, a) for every k-frequent value, in level order. A join
// of wildcard elements only generates wildcard elements, so a wildcardOnly
// lattice is TANE's.
func newLattice(r *core.Relation, k, workers int, wildcardOnly bool) *lattice {
	allTids := partition.AllTids(r.Size())
	l := &lattice{
		r: r, k: k, workers: workers,
		refiners: make([]*partition.Refiner, workers),
		itemTids: make([][][]int32, r.Arity()),
		root:     constPart{tp: core.NewPattern(r.Arity()), tids: allTids},
	}
	if !wildcardOnly {
		l.itemTids = partition.ItemTids(r, allTids)
	}
	for w := range l.refiners {
		l.refiners[w] = partition.NewRefiner(r)
	}
	root := &element{cp: &l.root, part: partition.FromItem(allTids)}
	l.prev = []*element{root}
	var blocks elementBlocks
	for a := 0; a < r.Arity(); a++ {
		e := blocks.alloc(core.SingleAttr(a), &l.root)
		e.part, e.parents[0] = partition.FromAttribute(root.part, a, l.refiners[0]), root
		l.level = append(l.level, e)
		for v, tids := range l.itemTids[a] {
			if len(tids) < l.k {
				continue
			}
			e := blocks.alloc(core.SingleAttr(a), l.constPart(&l.root, a, int32(v), nil))
			e.part, e.parents[0] = partition.FromItem(tids), root
			l.level = append(l.level, e)
		}
	}
	root.kids = slices.Clone(l.level)
	return l
}

// constPart returns the constant part that extends base by the item (attr,
// val), or nil if fewer than k tuples match it. Its tuples are one pass over
// the list base holds, gathered in *scratch (unused when base is the root),
// so only a k-frequent part allocates.
func (l *lattice) constPart(base *constPart, attr int, val int32, scratch *[]int32) *constPart {
	tids := l.itemTids[attr][val]
	if base != &l.root {
		*scratch = holding((*scratch)[:0], base.tids, l.r.Column(attr), val)
		tids = *scratch
	}
	if len(tids) < l.k {
		return nil
	}
	if base != &l.root {
		tids = slices.Clone(tids)
	}
	tp := base.tp.Clone()
	tp[attr] = val
	return &constPart{tp: tp, consts: base.consts + 1, tids: tids}
}

// MineContext runs CTANE, handing each lattice level's CFDs to emit — each
// once, in canonical order within the level — as soon as the level is
// validated. Cancellation is observed between per-element work units
// within a lattice level, which is how a consumer that has seen enough rules
// aborts the remaining (deeper, more expensive) levels; a cancelled run
// returns ctx.Err(). The emitted sequence is independent of Options.Workers.
func MineContext(ctx context.Context, r *core.Relation, opts Options, emit func(core.CFD)) error {
	k := max(opts.K, 1)
	arity := r.Arity()
	if r.Size() < k || arity == 0 {
		return ctx.Err()
	}
	maxLevel := arity
	if opts.MaxLHS > 0 && opts.MaxLHS+1 < maxLevel {
		maxLevel = opts.MaxLHS + 1
	}
	// No rule is emitted twice: a level's elements are distinct (attribute
	// set, pattern) pairs, each yielding at most one rule per attribute, and
	// each level's CFDs have a strictly larger LHS than every earlier level's.
	return newLattice(r, k, pool.Normalize(opts.Workers), false).mine(ctx, maxLevel, func(found []core.CFD) {
		core.SortCFDs(found)
		for _, c := range found {
			emit(c)
		}
	})
}

// MineFDs runs TANE: CTANE, on one worker, over the lattice of the items
// (A, "_"), whose minimal CFDs are r's minimal FDs — ∅ → A included, even on
// an empty relation. It emits them in canonical order once the traversal is
// done; a cancelled run emits nothing and returns ctx.Err().
func MineFDs(ctx context.Context, r *core.Relation, emit func(core.CFD)) error {
	var out []core.CFD
	if err := newLattice(r, 1, 1, true).mine(ctx, r.Arity(), func(found []core.CFD) {
		out = append(out, found...)
	}); err != nil {
		return err
	}
	core.SortCFDs(out)
	for _, c := range out {
		emit(c)
	}
	return nil
}

// mine runs the levels up to maxLevel, handing each level's valid candidate
// CFDs to found once the level is validated. The slice is reused by the
// next level.
func (l *lattice) mine(ctx context.Context, maxLevel int, found func([]core.CFD)) error {
	var out []core.CFD
	for depth := 1; len(l.level) > 0 && depth <= maxLevel; depth++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if out, err = l.discover(ctx, out[:0]); err != nil {
			return err
		}
		found(out)
		if depth == maxLevel {
			break
		}
		if err := l.advance(ctx); err != nil {
			return err
		}
	}
	return nil
}

// discover runs Steps 1 to 3 on the current level, which is in level order:
// it derives the C+ sets, appends the level's valid candidate CFDs to out, and
// prunes the level down to the elements the next one is generated from.
func (l *lattice) discover(ctx context.Context, out []core.CFD) ([]core.CFD, error) {
	level := l.level
	// Steps 1 to 3 run as one task per run of equal attribute sets. A run
	// holds an element's siblings, the only elements whose C+ sets its Step
	// 2.c changes, and Step 1 reads only the level below: the runs are
	// independent, and each goes through Step 2 in level order, as one
	// worker goes through them all.
	runs := runStarts(level)
	found := make([][]core.CFD, l.workers)
	found[0] = out
	kept := make([]int, len(runs)-1)
	if err := pool.Each(ctx, l.workers, len(kept), func(w, i int) {
		run := level[runs[i]:runs[i+1]]
		found[w] = l.validateRun(run, found[w])
		kept[i] = l.prune(run)
	}); err != nil {
		return nil, err
	}
	out = found[0]
	for _, f := range found[1:] {
		out = append(out, f...)
	}
	n := 0
	for i, k := range kept {
		n += copy(level[n:], level[runs[i]:runs[i]+k])
	}
	clear(level[n:])
	l.level = level[:n]
	// Steps 1 and 2 were the last to read the partitions and C+ sets of the
	// level below; the join reads only its kids.
	for _, p := range l.prev {
		p.part, p.cplus = partition.Partition{}, candidateSet{}
	}
	return out, nil
}

// runStarts returns the index at which each run of elements with equal
// attribute sets starts in level, followed by len(level).
func runStarts(level []*element) []int {
	var starts []int
	for i, e := range level {
		if i == 0 || e.attrs != level[i-1].attrs {
			starts = append(starts, i)
		}
	}
	return append(starts, len(level))
}

// prune performs Step 3 on a run: it drops the elements whose C+ set holds
// no candidate they or the elements above them can still check, keeps the
// others at the front of the run in order, and returns their number. A
// dropped element is cleared but for its last item, which keeps its
// prefix's kids sorted, so nothing it holds outlives its level.
func (l *lattice) prune(run []*element) int {
	all := l.r.Schema().All()
	kept := run[:0]
	for _, e := range run {
		if e.cplus.exhausted(e.attrs, e.tp(), all) {
			*e = element{lastItem: e.lastItem}
			continue
		}
		kept = append(kept, e)
	}
	return len(kept)
}

// forEachAttr calls fn for every attribute of the element, ascending, with
// the sub-element that lacks it.
func (e *element) forEachAttr(fn func(a int, parent *element)) {
	i := 0
	for v := uint64(e.attrs); v != 0; v &= v - 1 {
		fn(bits.TrailingZeros64(v), e.parents[i])
		i++
	}
}

// validateRun runs Steps 1 and 2 on one run of siblings, in level order, and
// appends their valid candidate CFDs to out.
func (l *lattice) validateRun(run []*element, out []core.CFD) []core.CFD {
	// Step 1: candidate RHS sets as intersections over immediate subsets.
	for _, e := range run {
		e.cplus = intersectCandidates(e.parents)
	}
	// Step 2: emit valid candidate CFDs and update the C+ sets.
	all := l.r.Schema().All()
	for i, e := range run {
		tp := e.tp()
		e.forEachAttr(func(a int, parent *element) {
			cA := tp[a]
			if !e.cplus.has(a, cA) || !validCFD(parent, e, cA) {
				return
			}
			sub := e.attrs.Remove(a)
			out = append(out, core.CFD{LHS: sub, RHS: a, Tp: tp.Clone()})
			// Step 2.c: the same RHS with a more specific LHS pattern can no
			// longer be minimal, and (as in TANE) attributes outside X cannot be
			// minimal RHS candidates for those elements either. A pattern at
			// least as specific as e's holds at least as many constants, so
			// those siblings are e itself and elements sorted after it.
			for _, s := range run[i:] {
				if stp := s.tp(); stp[a] != cA || !tp.MoreGeneralOrEqualOn(stp, sub) {
					continue
				}
				s.cplus.removeVal(a, cA)
				s.cplus.removeAttrs(all.Diff(e.attrs))
			}
		})
	}
	return out
}

// validCFD checks the candidate CFD (X\{A} → A, (sp[X\{A}] ‖ sp[A])) of a
// lattice element against its parent's partition (Step 2.b).
func validCFD(parent, e *element, cA int32) bool {
	if cA == core.Wildcard {
		return partition.RefinesRHSVariable(parent.part, e.part)
	}
	return partition.RefinesRHSConstant(parent.part, e.part)
}

// joinWorker is one worker's state in Step 4.
type joinWorker struct {
	blocks elementBlocks
	gen    []*element // the elements its tasks generated, task after task
	subs   []*element // the sub-elements found so far for one candidate
	tids   []int32    // a constant part's tuples before its support is known
}

// advance performs Step 4: it joins pairs of surviving elements that agree on
// all but their largest attribute — the kids of one prefix — keeps candidates
// all of whose immediate sub-elements survived pruning and whose constant
// part is k-frequent, and builds their partitions as products of the
// parents' partitions.
//
// The join runs as one task per run of prefixes with equal attribute sets P,
// carving elements from its worker's blocks. Every generated element whose
// attribute set is P plus two larger attributes is generated from those
// prefixes, so a task's share is whole runs of the next level. The shares
// are concatenated in run order, and the partition products fanned out per
// element, each worker with its own refiner and a new arena for the level.
// The parents x and y differ in their last item only, so the product is
// either one refined by the other's last item; the one storing fewer tuples
// is scanned. Last, each share is sorted into level order, one task per
// share; as level order compares attribute sets as ascending lists, the
// concatenation in run order is then level order: the next level is the
// same for every worker count.
func (l *lattice) advance(ctx context.Context) error {
	workers := make([]joinWorker, l.workers)
	runs := runStarts(l.prev)
	// Task i generates gen[from:to] of worker w, which becomes
	// next[at[i]:at[i+1]].
	type share struct{ w, from, to int }
	shares := make([]share, len(runs)-1)
	if err := pool.Each(ctx, l.workers, len(shares), func(w, i int) {
		from := len(workers[w].gen)
		l.join(ctx, &workers[w], l.prev[runs[i]:runs[i+1]])
		shares[i] = share{w, from, len(workers[w].gen)}
	}); err != nil {
		return err
	}
	// A task gives up at the first cancellation it observes.
	if err := ctx.Err(); err != nil {
		return err
	}
	n := 0
	for _, j := range workers {
		n += len(j.gen)
	}
	next, at := make([]*element, 0, n), make([]int, 1, len(shares)+1)
	for _, s := range shares {
		next = append(next, workers[s.w].gen[s.from:s.to]...)
		at = append(at, len(next))
	}
	for _, rf := range l.refiners {
		rf.NewArena()
	}
	if err := pool.Each(ctx, l.workers, len(next), func(w, i int) {
		e := next[i]
		// The parents end in y, x. Ties go to x, so the choice is a function
		// of the input alone.
		small, by := e.prefix(), e.parents[len(e.parents)-2]
		if by.part.SumSizes() < small.part.SumSizes() {
			small, by = by, small
		}
		last := by.attrs.Last()
		e.part = l.refiners[w].Refine(small.part, last, by.tp()[last])
		e.part.Covered = len(e.cp.tids)
	}); err != nil {
		return err
	}
	// The products read the shares in the order they were generated in;
	// only then does each go into level order.
	if err := pool.Each(ctx, l.workers, len(shares), func(_, i int) {
		slices.SortFunc(next[at[i]:at[i+1]], levelOrder)
	}); err != nil {
		return err
	}
	if l.tally {
		l.joins = append(l.joins, joinTally{held(l.prev), held(l.level), held(next)})
	}
	l.prev, l.level = l.level, next
	return nil
}

// join generates the candidates from the kids of each prefix of run and
// appends them to j.gen; the candidates joined on a kid x become x's kids,
// in the order of x's partners y, which is their last items' order. It
// stops early once ctx is done: the join alone can dwarf the rest of a level
// on low support thresholds. It writes only the kids of run's prefixes, and
// reads the kids lists of other prefixes.
func (l *lattice) join(ctx context.Context, j *joinWorker, run []*element) {
	for _, p := range run {
		for i, x := range p.kids {
			if ctx.Err() != nil {
				return
			}
			if x.pruned() {
				continue
			}
			xLast := x.attrs.Last()
			xVal := x.tp()[xLast]
			from := len(j.gen)
			// The kids are sorted by last attribute, so every y with a larger
			// one follows x.
			for _, y := range p.kids[i+1:] {
				yLast := y.attrs.Last()
				if y.pruned() || yLast == xLast {
					continue
				}
				// Step 4.b(iii): every immediate sub-element must have
				// survived. Those without y's and x's last attribute are x and
				// y; the one without an attribute B of the prefix is the kid,
				// by y's last item, of x's own sub-element without B.
				j.subs = j.subs[:0]
				for _, sub := range x.parents[:len(x.parents)-1] {
					c := sub.kid(y.lastItem)
					if c == nil {
						break
					}
					j.subs = append(j.subs, c)
				}
				if len(j.subs) < len(x.parents)-1 {
					continue
				}
				// Step 4.b(ii), with the k-frequency refinement of §4.2: the
				// candidate's constant part is that of each sub-element
				// without one of its wildcard attributes, which survived and
				// so is k-frequent. Only a candidate of constants alone, which
				// is generated once, builds its part and checks its support.
				val := y.tp()[yLast]
				var cp *constPart
				switch {
				case val == core.Wildcard:
					cp = x.cp
				case xVal == core.Wildcard:
					cp = y.cp
				default:
					for _, c := range j.subs {
						if c.cp.consts == x.cp.consts+1 {
							cp = c.cp
							break
						}
					}
					if cp == nil {
						if cp = l.constPart(x.cp, yLast, val, &j.tids); cp == nil {
							continue
						}
					}
				}
				e := j.blocks.alloc(x.attrs.Union(y.attrs), cp)
				n := copy(e.parents, j.subs)
				e.parents[n], e.parents[n+1] = y, x
				j.gen = append(j.gen, e)
			}
			if n := len(j.gen) - from; n > 0 {
				x.kids = carve(&j.blocks.kids, n)
				copy(x.kids, j.gen[from:])
			}
			// The join was the last to read x's links to the level below.
			// The new level reaches x through its own links, and dropping
			// x's leaves the level below unreachable: so the partitions of at
			// most two levels are alive at a time, the joined level's and
			// the generated one's here, the validated level's and the one
			// below it during discover.
			x.parents = nil
		}
	}
}

// levelOrder is the order of a level. Attribute sets compare as ascending
// attribute lists, so the elements generated from a run of prefixes with
// equal attribute sets come after those of the runs before it. Within one
// attribute set, more general patterns (fewer constants) come before more
// specific ones — the order Step 2 relies on so that a general valid CFD
// removes its specialisations from the C+ sets before they are examined.
// Patterns with equally many constants are ordered by their codes, the
// wildcard first, only to make the order total: Step 2.c acts from a
// strictly more general sibling (or the element itself), never between two
// of them, and each level's output is deduplicated and canonically sorted
// afterwards.
func levelOrder(x, y *element) int {
	if d := uint64(x.attrs ^ y.attrs); d != 0 {
		if x.attrs.Has(bits.TrailingZeros64(d)) {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(x.cp.consts, y.cp.consts); c != 0 {
		return c
	}
	for v := uint64(x.attrs); v != 0; v &= v - 1 {
		if a := bits.TrailingZeros64(v); x.cp.tp[a] != y.cp.tp[a] {
			return cmp.Compare(x.cp.tp[a], y.cp.tp[a])
		}
	}
	return 0
}

// holding appends to dst the tuples of the ascending list tids whose value in
// col is v: the constant part's tid list extended by the item (col, v), in
// one pass over the list the left parent already holds.
func holding(dst, tids, col []int32, v int32) []int32 {
	for _, t := range tids {
		if col[t] == v {
			dst = append(dst, t)
		}
	}
	return dst
}
