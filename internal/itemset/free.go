package itemset

import (
	"context"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/partition"
)

// Mining holds the result of mining k-frequent free item sets over a
// relation: the free sets in ascending size order, each with its closure — a
// k-frequent closed item set (§3.2). It also indexes free sets by canonical
// key so that algorithms can test whether an arbitrary item set is free.
type Mining struct {
	Relation *core.Relation
	K        int
	Free     []*FreeSet

	freeByKey map[string]*FreeSet
}

// MineContext computes all k-frequent free item sets of r and their closures,
// using a levelwise generator search: free-ness and k-frequency are both
// anti-monotone, so level ℓ+1 candidates are joins of level-ℓ free sets all of
// whose immediate subsets are free.
//
// The empty item set (support = |r|) is always included as a free set; its
// closure collects the attributes that are constant across the whole relation.
//
// ctx is observed once per free item set during both the levelwise search and
// the closure computation — item-set mining dominates CFDMiner and FastCFD
// runs, so cancellation must reach inside it. A cancelled run returns
// (nil, ctx.Err()).
func MineContext(ctx context.Context, r *core.Relation, k int) (*Mining, error) {
	if k < 1 {
		k = 1
	}
	m := &Mining{Relation: r, K: k, freeByKey: make(map[string]*FreeSet)}
	n := r.Size()
	arity := r.Arity()

	allTids := partition.AllTids(n)
	empty := &FreeSet{ItemSet: EmptyItemSet(arity), Tids: allTids}
	m.addFree(empty)

	if n < k {
		if err := m.finish(ctx); err != nil {
			return nil, err
		}
		return m, nil
	}

	// Level 1: single items with support >= k that are free, i.e. whose support
	// is strictly below |r| (an item held by every tuple belongs to clo(∅)).
	var level []*FreeSet
	for a, lists := range partition.ItemTids(r, allTids) {
		for v, tids := range lists {
			if len(tids) < k || len(tids) == n {
				continue
			}
			fs := &FreeSet{ItemSet: EmptyItemSet(arity).With(Item{Attr: a, Value: int32(v)}), Tids: tids}
			level = append(level, fs)
			m.addFree(fs)
		}
	}

	// Levels 2..arity: extend each level-ℓ free set with every item on a later
	// attribute that co-occurs in its tid list (occurrence deliver), found by
	// one counting split of the tid list per attribute. Every subset of a free
	// set is free, so a size-(ℓ+1) free set is reached exactly once, from the
	// free set that drops its last attribute; the candidate is kept iff all
	// its immediate subsets are free and have strictly larger support. This
	// avoids the quadratic pairwise join of a classical Apriori generator
	// search, which dominates when the threshold is as low as k = 2.
	split := partition.NewSplitter(partition.MaxDomain(r))
	var groups partition.Groups
	tp := core.NewPattern(arity)
	for len(level) > 0 {
		var next []*FreeSet
		for _, fs := range level {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			copy(tp, fs.Tp)
			for a := fs.Attrs.Last() + 1; a < arity; a++ {
				groups.Reset()
				split.Split(r.Column(a), fs.Tids, k, &groups)
				attrs := fs.Attrs.Add(a)
				for i, v := range groups.Codes {
					tids := groups.Group(i)
					if len(tids) == len(fs.Tids) {
						// The item belongs to clo(fs): not free.
						continue
					}
					tp[a] = v
					free := true
					fs.Attrs.ForEach(func(b int) {
						if !free {
							return
						}
						sub, ok := m.freeByKey[tp.Key(attrs.Remove(b))]
						if !ok || len(sub.Tids) <= len(tids) {
							free = false
						}
					})
					if !free {
						continue
					}
					nf := &FreeSet{ItemSet: ItemSet{Attrs: attrs, Tp: tp.Clone()}, Tids: slices.Clone(tids)}
					next = append(next, nf)
					m.addFree(nf)
				}
				tp[a] = core.Wildcard
			}
		}
		level = next
	}

	if err := m.finish(ctx); err != nil {
		return nil, err
	}
	return m, nil
}

// addFree registers a free set. The search reaches every free set once.
func (m *Mining) addFree(fs *FreeSet) {
	m.freeByKey[fs.Key()] = fs
	m.Free = append(m.Free, fs)
}

// finish computes the closure of every free set and orders the free sets
// deterministically: ascending by size, then key.
func (m *Mining) finish(ctx context.Context) error {
	for _, fs := range m.Free {
		if err := ctx.Err(); err != nil {
			return err
		}
		fs.Closure = m.closureOf(fs)
	}
	sort.Slice(m.Free, func(i, j int) bool {
		if m.Free[i].Size() != m.Free[j].Size() {
			return m.Free[i].Size() < m.Free[j].Size()
		}
		return m.Free[i].Key() < m.Free[j].Key()
	})
	return nil
}

// closureOf computes clo(X, tp): the unique maximal item set with the same
// support, by collecting every attribute on which all supporting tuples agree.
func (m *Mining) closureOf(fs *FreeSet) ItemSet {
	r := m.Relation
	closure := ItemSet{Attrs: fs.Attrs, Tp: fs.Tp.Clone()}
	if len(fs.Tids) == 0 {
		return closure
	}
	for a := 0; a < r.Arity(); a++ {
		if closure.Attrs.Has(a) {
			continue
		}
		col := r.Column(a)
		v := col[fs.Tids[0]]
		same := true
		for _, t := range fs.Tids[1:] {
			if col[t] != v {
				same = false
				break
			}
		}
		if same {
			closure.Attrs = closure.Attrs.Add(a)
			closure.Tp[a] = v
		}
	}
	return closure
}

// LookupFree returns the free set equal to (attrs, tp), if it is k-frequent
// and free in the mined relation.
func (m *Mining) LookupFree(attrs core.AttrSet, tp core.Pattern) (*FreeSet, bool) {
	fs, ok := m.freeByKey[tp.Key(attrs)]
	return fs, ok
}

// IsFree reports whether (attrs, tp) is a k-frequent free item set.
func (m *Mining) IsFree(attrs core.AttrSet, tp core.Pattern) bool {
	_, ok := m.freeByKey[tp.Key(attrs)]
	return ok
}
