// Package diffset computes the difference sets used by FastCFD and FastFD
// (§5.1 of the paper). For a constant pattern tp over attributes X, the
// sub-relation r_tp consists of the tuples matching tp; D(r_tp) contains, for
// every pair of tuples of r_tp, the set of attributes on which the pair
// disagrees; and D^m_A(r_tp) contains the minimal sets of D(r_tp) restricted to
// pairs that disagree on A, with A itself removed.
//
// Two backends implement the computation:
//
//   - Naive follows FastFD: it enumerates tuple pairs of r_tp directly. This
//     is the backend of the NaiveFast variant evaluated in §6.
//   - Closed derives the difference sets from the 2-frequent closed item sets
//     of the whole relation, mined once and filtered per pattern, which is the
//     optimisation that distinguishes FastCFD (§5.5).
package diffset

import (
	"cmp"
	"context"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/itemset"
)

// Computer produces the difference sets of constant patterns. Both backends
// are read-only once built, so one is safe to query from many goroutines.
type Computer interface {
	// DiffSets returns D(r_tp) for the sub-relation of tuples matching the
	// constants of tp on attrs, ascending: the distinct non-empty attribute
	// sets on which some pair of r_tp tuples disagrees (for Closed, a
	// superset of them with the same minimal sets under every Restrict).
	DiffSets(attrs core.AttrSet, tp core.Pattern) []core.AttrSet
}

// Minimize returns the minimal sets of the input under set inclusion, with
// duplicates removed, sorted by size then bit pattern for determinism. The
// input is left as it was.
func Minimize(sets []core.AttrSet) []core.AttrSet {
	if len(sets) == 0 {
		return nil
	}
	all := slices.Clone(sets)
	slices.SortFunc(all, func(a, b core.AttrSet) int {
		return cmp.Or(cmp.Compare(a.Len(), b.Len()), cmp.Compare(a, b))
	})
	// A set can only contain one sorted before it, so the minimal sets are
	// filtered into the front of the sorted copy.
	out := all[:0]
	for i, s := range all {
		if i > 0 && s == all[i-1] {
			continue
		}
		if !slices.ContainsFunc(out, func(m core.AttrSet) bool { return m.SubsetOf(s) }) {
			out = append(out, s)
		}
	}
	return out
}

// Restrict keeps the difference sets containing rhs, removes rhs from them,
// and minimizes the result — turning D(r_tp) into D^m_A(r_tp): the minimal
// attribute sets (excluding A itself) on which some pair of r_tp tuples that
// disagrees on A also disagrees.
func Restrict(diffs []core.AttrSet, rhs int) []core.AttrSet {
	var out []core.AttrSet
	for _, d := range diffs {
		if d.Has(rhs) {
			out = append(out, d.Remove(rhs))
		}
	}
	return Minimize(out)
}

// Covers reports whether Z covers the collection of difference sets: every set
// shares at least one attribute with Z. The empty collection is covered by any
// set; a collection containing the empty set is covered by none.
func Covers(Z core.AttrSet, diffs []core.AttrSet) bool {
	for _, d := range diffs {
		if !Z.Intersects(d) {
			return false
		}
	}
	return true
}

// IsMinimalCover reports whether Z covers diffs and no proper subset of Z does.
// Because removing a single attribute from a non-minimal cover still yields a
// cover, it suffices to check the immediate subsets of Z.
func IsMinimalCover(Z core.AttrSet, diffs []core.AttrSet) bool {
	if !Covers(Z, diffs) {
		return false
	}
	minimal := true
	Z.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
		if Covers(sub, diffs) {
			minimal = false
			return false
		}
		return true
	})
	return minimal
}

// MinimalCovers calls visit with every minimal cover of diffs that is built
// from the candidate attributes and holds at most maxSize of them (any number
// when maxSize is negative). It is the depth-first search of §5.6 shared by
// FastFD and FastCFD's FindMin: each node ranks the candidates covering some
// remaining difference set by how many they cover (ties by attribute), drops
// the rest, and branches on each ranked attribute with only the lower-ranked
// ones left to add, so no cover is visited twice. An empty diffs has the one
// minimal cover ∅; a diffs holding the empty set has none.
func MinimalCovers(diffs []core.AttrSet, candidates []int, maxSize int, visit func(core.AttrSet)) {
	if slices.ContainsFunc(diffs, core.AttrSet.IsEmpty) {
		return
	}
	var find func(y core.AttrSet, remaining []core.AttrSet, cands []int)
	find = func(y core.AttrSet, remaining []core.AttrSet, cands []int) {
		if len(remaining) == 0 {
			if IsMinimalCover(y, diffs) {
				visit(y)
			}
			return
		}
		if len(cands) == 0 || maxSize >= 0 && y.Len() >= maxSize {
			return
		}
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
			find(y.Add(o.attr), nextRemaining, rest[i+1:])
		}
	}
	find(core.EmptyAttrSet, diffs, candidates)
}

// Naive computes difference sets by direct pairwise comparison of the tuples
// matching the pattern (the FastFD approach used by NaiveFast).
type Naive struct {
	r *core.Relation
}

// NewNaive returns a Naive difference-set computer over r.
func NewNaive(r *core.Relation) *Naive {
	return &Naive{r: r}
}

// DiffSets implements Computer: the distinct difference sets of all tuple
// pairs of r_tp.
func (n *Naive) DiffSets(attrs core.AttrSet, tp core.Pattern) []core.AttrSet {
	r := n.r
	arity := r.Arity()
	tids := r.MatchingTuples(attrs, tp)
	seen := make(map[core.AttrSet]bool)
	for i := 0; i < len(tids); i++ {
		for j := i + 1; j < len(tids); j++ {
			var d core.AttrSet
			for a := 0; a < arity; a++ {
				if r.Value(int(tids[i]), a) != r.Value(int(tids[j]), a) {
					d = d.Add(a)
				}
			}
			if !d.IsEmpty() {
				seen[d] = true
			}
		}
	}
	out := make([]core.AttrSet, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Closed computes difference sets from the 2-frequent closed item sets of the
// relation (§5.5): the agree set of any pair of tuples of r_tp is a closed
// item set with support ≥ 2 that contains the pattern's items, so the
// complements of the matching closed sets are a superset of the true
// difference sets that contains every true difference set — which leaves the
// minimal difference sets unchanged.
type Closed struct {
	r      *core.Relation
	closed *itemset.ClosedSets
	// byItem indexes the closed sets by the items they contain, so that the
	// per-pattern filtering only scans the closed sets containing the
	// pattern's rarest item instead of the whole collection: the ids of the
	// closed sets holding value code v on attribute a are
	// ids[byItem[a][v]:byItem[a][v+1]], in search order.
	ids    []int32
	byItem [][]int32
}

// NewClosed mines the 2-frequent closed item sets of r on up to workers
// goroutines (0 = one per CPU, 1 = sequential), indexes them, and returns a
// Closed difference-set computer answering every pattern from them. A
// cancelled ctx returns ctx.Err().
func NewClosed(ctx context.Context, r *core.Relation, workers int) (*Closed, error) {
	closed, err := itemset.MineClosed(ctx, r, 2, workers)
	if err != nil {
		return nil, err
	}
	c := &Closed{r: r, closed: closed}
	// Count the closed sets per item into the offset tables, one entry
	// ahead; sum the counts into window starts over one buffer; fill the
	// windows in search order, which leaves each entry at its window's end;
	// shift the entries back by one.
	c.byItem = make([][]int32, r.Arity())
	for a := range c.byItem {
		c.byItem[a] = make([]int32, r.DomainSize(a)+1)
	}
	for id := range closed.All() {
		tp := closed.Pattern(id)
		closed.Attrs(id).ForEach(func(a int) { c.byItem[a][tp[a]+1]++ })
	}
	total := int32(0)
	for _, off := range c.byItem {
		for v := range off {
			total += off[v]
			off[v] = total
		}
	}
	c.ids = make([]int32, total)
	for id := range closed.All() {
		tp := closed.Pattern(id)
		closed.Attrs(id).ForEach(func(a int) {
			off := c.byItem[a]
			c.ids[off[tp[a]]] = id
			off[tp[a]]++
		})
	}
	start := int32(0)
	for _, off := range c.byItem {
		end := off[len(off)-1]
		copy(off[1:], off)
		off[0] = start
		start = end
	}
	return c, nil
}

// DiffSets implements Computer: the complements of the 2-frequent closed
// item sets containing the pattern's items.
func (c *Closed) DiffSets(attrs core.AttrSet, tp core.Pattern) []core.AttrSet {
	// Restrict the scan to the closed sets containing the pattern's rarest
	// item; for the empty pattern every closed set qualifies.
	all := c.r.Schema().All()
	var out distinctSets
	scan := func(id int32) {
		cAttrs := c.closed.Attrs(id)
		if !attrs.SubsetOf(cAttrs) {
			return
		}
		cTp := c.closed.Pattern(id)
		match := true
		attrs.ForEach(func(a int) { match = match && cTp[a] == tp[a] })
		if d := all.Diff(cAttrs); match && !d.IsEmpty() {
			out.add(d)
		}
	}
	if attrs.IsEmpty() {
		for id := range c.closed.All() {
			scan(id)
		}
	} else {
		var narrowest []int32
		first := true
		attrs.ForEach(func(a int) {
			off := c.byItem[a]
			if list := c.ids[off[tp[a]]:off[tp[a]+1]]; first || len(list) < len(narrowest) {
				narrowest, first = list, false
			}
		})
		for _, id := range narrowest {
			scan(id)
		}
	}
	return out.sets()
}

// distinctSets collects attribute sets and keeps only the distinct ones: when
// its buffer is full it sorts and compacts it, and grows it only when that
// freed less than half. A scan matching many closed sets so holds its
// distinct complements — at most 2^arity − 1 — rather than one per match,
// and a run of distinct sets costs O(log n) sorts in all, not one per add.
type distinctSets struct {
	buf   []core.AttrSet
	sorts int // compactions so far
}

func (s *distinctSets) add(d core.AttrSet) {
	switch {
	case s.buf == nil:
		s.buf = make([]core.AttrSet, 0, 16)
	case len(s.buf) == cap(s.buf):
		s.compact()
		if 2*len(s.buf) > cap(s.buf) {
			s.buf = slices.Grow(s.buf, cap(s.buf))
		}
	}
	s.buf = append(s.buf, d)
}

func (s *distinctSets) compact() {
	slices.Sort(s.buf)
	s.buf = slices.Compact(s.buf)
	s.sorts++
}

// sets returns the distinct sets in ascending order, copied out at their
// exact size: the result is kept for the run.
func (s *distinctSets) sets() []core.AttrSet {
	s.compact()
	return slices.Clone(s.buf)
}
