// Package ctane implements CTANE (§4 of the paper): levelwise discovery of
// minimal, k-frequent conditional functional dependencies over an
// attribute-set/pattern lattice. It extends TANE with pattern tuples: a lattice
// element is a pair (X, sp) of an attribute set and a pattern of constants and
// unnamed variables over X, and candidate CFDs (X\{A} → A, (sp[X\{A}] ‖ sp[A]))
// are validated with stripped partitions and pruned through the C+ candidate
// sets maintained across levels.
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
	// Workers bounds the number of goroutines used within each lattice level
	// (candidate-set intersection, candidate-CFD validation and the partition
	// products of the join are fanned out per element; the levels themselves
	// stay sequential, as each depends on the previous one). 0 selects one worker
	// per CPU, 1 runs sequentially. The emitted sequence is identical for
	// every worker count.
	Workers int
}

// element is one node of the attribute-set/pattern lattice. Its pattern is
// that of its interned constant part: the constants, wildcard on every other
// attribute. It reaches its immediate sub-elements — the elements one
// attribute smaller that carry the same pattern — by pointer, so no step of
// the traversal looks an element up by a rendered key. A level's elements
// live in blocks (elementBlocks), and its partitions in the refiners' arenas
// of that level.
type element struct {
	attrs   core.AttrSet
	constID int32 // interned constant part of the pattern, an index into lattice.parts
	part    partition.Partition
	cplus   candidateSet
	// parents[i] is the sub-element without the i-th smallest attribute of
	// attrs; the last one is the prefix the element was joined on. Cleared
	// once the next level is generated, which is what lets the level below
	// be collected.
	parents []*element
	// kids lists the pruning survivors of the next level whose prefix this
	// element is, in level order: one group of the prefix join.
	kids []*element
}

// prefix is the sub-element without the largest attribute.
func (e *element) prefix() *element { return e.parents[len(e.parents)-1] }

// elementBlock is the number of elements one block holds.
const elementBlock = 256

// elementBlocks hands out the elements of one level, and their parents
// slices, from blocks: a level is a few large allocations that die together
// rather than several objects per element.
type elementBlocks struct {
	elems   []element
	parents []*element
}

// alloc returns a new element of attrs and constID with a parents slice of
// one link per attribute, for the caller to fill.
func (b *elementBlocks) alloc(attrs core.AttrSet, constID int32) *element {
	if len(b.elems) == 0 {
		b.elems = make([]element, elementBlock)
	}
	n := attrs.Len()
	if len(b.parents) < n {
		b.parents = make([]*element, n*elementBlock)
	}
	e := &b.elems[0]
	b.elems = b.elems[1:]
	e.attrs, e.constID = attrs, constID
	e.parents, b.parents = b.parents[:n:n], b.parents[n:]
	return e
}

// childKey names a lattice element by its prefix and its last item, the
// (attribute, value) pair the prefix was extended by.
type childKey struct {
	prefix    *element
	attr, val int32
}

// constKey names a constant pattern the same way: the id of the constant
// part it extends and the item it adds.
type constKey struct {
	base, attr, val int32
}

// constPart is an interned k-frequent constant pattern.
type constPart struct {
	tp     core.Pattern // the constants, wildcard on every other attribute
	consts int          // number of constants of tp
	tids   []int32      // the tuples matching tp, ascending: the part's support
}

// heldTids tallies what the partitions of one lattice level hold, from their
// lengths: the tids of their stored classes and the classes' end offsets.
type heldTids struct {
	tids, classEnds int
}

// held returns the tally of a level's partitions.
func held(level []*element) heldTids {
	var h heldTids
	for _, e := range level {
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

// lattice is the state of one CTANE run: the level being worked on, the
// survivors of the one below it, and the interned constant parts.
type lattice struct {
	r        *core.Relation
	k        int // at least 1, as MineContext clamps it
	workers  int
	refiners []*partition.Refiner // one per worker
	itemTids [][][]int32
	// constIDs interns constant patterns, id 0 being the empty one, as
	// indexes into parts. A pattern below k is interned as -1: no element is
	// built on it, so nothing reads its tuples.
	constIDs map[constKey]int32
	parts    []constPart
	scratch  []int32 // a constant part's tuples before its support is known

	prev  []*element // Step-3 survivors of the previous level, in level order
	level []*element
	joins []joinTally // one per advance, in order
}

// tp returns the element's pattern.
func (l *lattice) tp(e *element) core.Pattern { return l.parts[e.constID].tp }

// newLattice builds the virtual level 0 — the empty attribute set, one
// equivalence class — and level 1: (A, "_") for every attribute plus (A, a)
// for every k-frequent value.
func newLattice(r *core.Relation, k, workers int) *lattice {
	allTids := partition.AllTids(r.Size())
	l := &lattice{
		r: r, k: k, workers: workers,
		refiners: make([]*partition.Refiner, workers),
		itemTids: partition.ItemTids(r, allTids),
		constIDs: make(map[constKey]int32),
		parts:    []constPart{{tp: core.NewPattern(r.Arity()), tids: allTids}},
	}
	for w := range l.refiners {
		l.refiners[w] = partition.NewRefiner(r)
	}
	root := &element{part: partition.FromItem(allTids)}
	l.prev = []*element{root}
	var blocks elementBlocks
	for a := 0; a < r.Arity(); a++ {
		e := blocks.alloc(core.SingleAttr(a), 0)
		e.part, e.parents[0] = partition.FromAttribute(root.part, a, l.refiners[0]), root
		l.level = append(l.level, e)
		for v, tids := range l.itemTids[a] {
			if len(tids) < l.k {
				continue
			}
			e := blocks.alloc(core.SingleAttr(a), l.constPart(0, a, int32(v)))
			e.part, e.parents[0] = partition.FromItem(tids), root
			l.level = append(l.level, e)
		}
	}
	return l
}

// constPart returns the id of the constant part that extends part base by
// the item (attr, val), or -1 if fewer than k tuples match it. Its tid list —
// one pass over the list the base already holds — is computed the first time
// the part is asked for, and kept only if the part is k-frequent.
func (l *lattice) constPart(base int32, attr int, val int32) int32 {
	key := constKey{base, int32(attr), val}
	if id, ok := l.constIDs[key]; ok {
		return id
	}
	tids := l.itemTids[attr][val]
	if base != 0 {
		l.scratch = holding(l.scratch[:0], l.parts[base].tids, l.r.Column(attr), val)
		tids = l.scratch
	}
	id := int32(-1)
	if len(tids) >= l.k {
		if base != 0 {
			tids = slices.Clone(tids)
		}
		tp := l.parts[base].tp.Clone()
		tp[attr] = val
		id = int32(len(l.parts))
		l.parts = append(l.parts, constPart{tp: tp, consts: l.parts[base].consts + 1, tids: tids})
	}
	l.constIDs[key] = id
	return id
}

// MineContext runs CTANE, handing each lattice level's CFDs to emit —
// deduplicated and in canonical order within the level — as soon as the level
// is validated. Cancellation is observed between per-element work units
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

	l := newLattice(r, k, pool.Normalize(opts.Workers))
	var found []core.CFD
	for depth := 1; len(l.level) > 0 && depth <= maxLevel; depth++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		if found, err = l.discover(ctx, found[:0]); err != nil {
			return err
		}
		// Each level's CFDs have a strictly larger LHS than every earlier
		// level's, so no later level can duplicate them.
		found = core.DedupCFDs(found)
		core.SortCFDs(found)
		for _, c := range found {
			emit(c)
		}
		if depth == maxLevel {
			break
		}
		if err := l.advance(ctx); err != nil {
			return err
		}
	}
	return nil
}

// discover runs Steps 1 to 3 on the current level: it derives the C+ sets,
// appends the level's valid candidate CFDs to out, and prunes the level down
// to the elements the next one is generated from.
func (l *lattice) discover(ctx context.Context, out []core.CFD) ([]core.CFD, error) {
	level := l.level
	all := l.r.Schema().All()
	l.sortLevel(level)
	// Step 1: candidate RHS sets as intersections over immediate subsets.
	// Each element's intersection reads only the previous level, so the
	// elements fan out independently.
	if err := pool.Each(ctx, l.workers, len(level), func(_, i int) {
		level[i].cplus = intersectCandidates(level[i].parents)
	}); err != nil {
		return nil, err
	}
	// Step 2 pre-pass: validate the candidate CFDs of every element
	// concurrently. Validation only reads partitions, so it is safe to fan
	// out; the C+ updates of Step 2.c below stay sequential (they mutate
	// sibling elements), which keeps the output byte-identical to a
	// sequential run. The pre-pass may validate candidates that Step 2.c
	// later removes — wasted work, never a different answer — so it is
	// skipped when running on one worker.
	var validated []validation
	if l.workers > 1 {
		var err error
		validated, err = pool.Map(ctx, l.workers, len(level), func(_, i int) validation {
			e, tp := level[i], l.tp(level[i])
			var v validation
			e.forEachAttr(func(a int, parent *element) {
				if !e.cplus.has(a, tp[a]) {
					return
				}
				v.checked = v.checked.Add(a)
				if validCFD(parent, e, tp[a]) {
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
	// level's sorted order. The level is sorted by attribute set first, so
	// the siblings of an element are the run of equal attrs around it.
	runEnd := 0
	for i, e := range level {
		if i == runEnd {
			for runEnd < len(level) && level[runEnd].attrs == e.attrs {
				runEnd++
			}
		}
		tp := l.tp(e)
		e.forEachAttr(func(a int, parent *element) {
			cA := tp[a]
			if !e.cplus.has(a, cA) {
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
			sub := e.attrs.Remove(a)
			out = append(out, core.CFD{LHS: sub, RHS: a, Tp: tp.Clone()})
			// Step 2.c: the same RHS with a more specific LHS pattern can no
			// longer be minimal, and (as in TANE) attributes outside X cannot be
			// minimal RHS candidates for those elements either. A pattern at
			// least as specific as e's holds at least as many constants, so
			// those siblings are e itself and elements sorted after it.
			for _, s := range level[i:runEnd] {
				if stp := l.tp(s); stp[a] != cA || !tp.MoreGeneralOrEqualOn(stp, sub) {
					continue
				}
				s.cplus.removeVal(a, cA)
				s.cplus.removeAttrs(all.Diff(e.attrs))
			}
		})
	}
	// Step 3: prune elements with (conservatively detected) empty C+. A
	// pruned element is cleared, so nothing it holds outlives its level.
	kept := level[:0]
	for _, e := range level {
		if e.cplus.allAttrsRemoved(all) {
			*e = element{}
			continue
		}
		kept = append(kept, e)
	}
	clear(level[len(kept):])
	l.level = kept
	// Steps 1 and 2 were the last to read the partitions and C+ sets of the
	// level below; the join reads only its kids.
	for _, p := range l.prev {
		p.part, p.cplus = partition.Partition{}, candidateSet{}
	}
	return out, nil
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

// advance performs Step 4: it joins pairs of surviving elements that agree on
// all but their largest attribute — the kids of one prefix — keeps candidates
// whose constant part is k-frequent and all of whose immediate sub-elements
// survived pruning, and builds their partitions as products of the parents'
// partitions. The joins and frequency checks run sequentially (they share the
// constant-part table); the partition products — the expensive part — are
// fanned out across workers per joined element, each worker with its own
// refiner and a new arena for the level. The parents x and y differ in their
// last item only, so the product is either one refined by the other's last
// item; the one storing fewer tuples is scanned.
func (l *lattice) advance(ctx context.Context) error {
	// children finds a survivor by its prefix and last item. For the join of
	// x and y, the sub-element without an attribute B of the shared prefix is
	// the child, by y's last item, of x's own sub-element without B: one
	// lookup per sub-element, which is Step 4.b(iii)'s test as well.
	children := make(map[childKey]*element, len(l.level))
	for _, e := range l.level {
		last := e.attrs.Last()
		children[childKey{e.prefix(), int32(last), l.tp(e)[last]}] = e
		e.prefix().kids = append(e.prefix().kids, e)
	}
	var next []*element
	var blocks elementBlocks
	var subs []*element // scratch: the sub-elements found so far for one candidate
	for _, p := range l.prev {
		group := p.kids
		for _, x := range group {
			// The join pass alone can dwarf the rest of a level on low support
			// thresholds, so observe cancellation inside it too.
			if err := ctx.Err(); err != nil {
				return err
			}
			xLast := x.attrs.Last()
			for _, y := range group {
				yLast := y.attrs.Last()
				if xLast >= yLast {
					continue
				}
				// Support of the constant part (Step 4.b(ii) with the k-frequency
				// refinement of §4.2); x's own is k-frequent.
				val := l.tp(y)[yLast]
				constID := x.constID
				if val != core.Wildcard {
					if constID = l.constPart(x.constID, yLast, val); constID < 0 {
						continue
					}
				}
				// Step 4.b(iii): every immediate sub-element must have survived.
				// Those without y's and x's last attribute are x and y.
				subs = subs[:0]
				for _, sub := range x.parents[:len(x.parents)-1] {
					c, ok := children[childKey{sub, int32(yLast), val}]
					if !ok {
						break
					}
					subs = append(subs, c)
				}
				if len(subs) < len(x.parents)-1 {
					continue
				}
				e := blocks.alloc(x.attrs.Union(y.attrs), constID)
				n := copy(e.parents, subs)
				e.parents[n], e.parents[n+1] = y, x
				next = append(next, e)
			}
		}
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
		e.part = l.refiners[w].Refine(small.part, last, l.tp(by)[last])
		e.part.Covered = len(l.parts[e.constID].tids)
	}); err != nil {
		return err
	}
	l.joins = append(l.joins, joinTally{prev: held(l.prev), level: held(l.level), next: held(next)})
	// The level below gave up its partitions once this one was validated
	// against it; now the new level reaches this one through its own links,
	// and dropping this level's leaves the one below unreachable. So the
	// partitions of at most two levels are alive at a time: the joined
	// level's and the generated one's here, the validated level's and the
	// one below it during discover.
	for _, e := range l.level {
		e.parents = nil
	}
	l.prev, l.level = l.level, next
	return nil
}

// sortLevel orders a level so that, within one attribute set, more general
// patterns (fewer constants) come before more specific ones — the order Step 2
// relies on so that a general valid CFD removes its specialisations from the
// C+ sets before they are examined. Patterns with equally many constants are
// ordered by their codes only to make the order total: Step 2.c acts from a
// strictly more general sibling (or the element itself), never between two
// of them, and each level's output is deduplicated and canonically sorted
// afterwards.
func (l *lattice) sortLevel(level []*element) {
	slices.SortFunc(level, func(x, y *element) int {
		px, py := &l.parts[x.constID], &l.parts[y.constID]
		if c := cmp.Or(cmp.Compare(x.attrs, y.attrs), cmp.Compare(px.consts, py.consts)); c != 0 {
			return c
		}
		for v := uint64(x.attrs); v != 0; v &= v - 1 {
			if a := bits.TrailingZeros64(v); px.tp[a] != py.tp[a] {
				return cmp.Compare(px.tp[a], py.tp[a])
			}
		}
		return 0
	})
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
