// Package itemset implements the item-set mining substrate of the paper
// (§3.1): the k-frequent free item sets of a relation with their closures,
// from which CFDMiner reads its constant CFDs, and a depth-first
// closed-item-set miner used by FastCFD to derive difference sets from
// 2-frequent closed sets (§5.5).
//
// An item is an (attribute, constant) pair; an item set (X, tp) pairs an
// attribute set X with a constant pattern tp over X. Because every tuple
// carries exactly one value per attribute, an item set can hold at most one
// item per attribute.
package itemset

import "repro/internal/core"

// Item is a single (attribute, encoded value) pair.
type Item struct {
	Attr  int
	Value int32
}

// Less orders items by attribute index, then by value code.
func (i Item) Less(j Item) bool {
	if i.Attr != j.Attr {
		return i.Attr < j.Attr
	}
	return i.Value < j.Value
}

// ItemSet is a pair (X, tp): an attribute set and a constant pattern over it.
// The pattern is stored full-width; entries outside Attrs are Wildcard.
type ItemSet struct {
	Attrs core.AttrSet
	Tp    core.Pattern
}

// EmptyItemSet returns the empty item set for a schema of the given arity.
func EmptyItemSet(arity int) ItemSet {
	return ItemSet{Attrs: core.EmptyAttrSet, Tp: core.NewPattern(arity)}
}

// Size returns the number of items in the set.
func (s ItemSet) Size() int { return s.Attrs.Len() }

// Key returns a canonical map key for the item set.
func (s ItemSet) Key() string { return s.Tp.Key(s.Attrs) }

// Items returns the items of the set in (attribute, value) order.
func (s ItemSet) Items() []Item {
	out := make([]Item, 0, s.Attrs.Len())
	s.Attrs.ForEach(func(a int) {
		out = append(out, Item{Attr: a, Value: s.Tp[a]})
	})
	return out
}

// Has reports whether the set contains the given item.
func (s ItemSet) Has(it Item) bool {
	return s.Attrs.Has(it.Attr) && s.Tp[it.Attr] == it.Value
}

// ContainsAll reports whether every item of o is also in s, i.e. (o ⊑ s) in the
// paper's "more general than" order on item sets: o is more general than s.
func (s ItemSet) ContainsAll(o ItemSet) bool {
	if !o.Attrs.SubsetOf(s.Attrs) {
		return false
	}
	ok := true
	o.Attrs.ForEach(func(a int) {
		if s.Tp[a] != o.Tp[a] {
			ok = false
		}
	})
	return ok
}

// With returns a copy of the set extended with the given item. Extending with
// an item on an attribute already present overwrites that attribute's value.
func (s ItemSet) With(it Item) ItemSet {
	tp := s.Tp.Clone()
	tp[it.Attr] = it.Value
	return ItemSet{Attrs: s.Attrs.Add(it.Attr), Tp: tp}
}

// Without returns a copy of the set with the given attribute removed.
func (s ItemSet) Without(attr int) ItemSet {
	tp := s.Tp.Clone()
	tp[attr] = core.Wildcard
	return ItemSet{Attrs: s.Attrs.Remove(attr), Tp: tp}
}

// Project returns the restriction of the set to the attributes in keep.
func (s ItemSet) Project(keep core.AttrSet) ItemSet {
	attrs := s.Attrs.Intersect(keep)
	tp := core.NewPattern(len(s.Tp))
	attrs.ForEach(func(a int) { tp[a] = s.Tp[a] })
	return ItemSet{Attrs: attrs, Tp: tp}
}

// Format renders the item set using the relation's dictionaries.
func (s ItemSet) Format(r *core.Relation) string {
	return s.Tp.Format(r, s.Attrs)
}

// FreeSet is a k-frequent free item set together with its supporting tuples
// and its closure: the unique maximal item set with the same support.
type FreeSet struct {
	ItemSet
	Tids    []int32
	Closure ItemSet
}

// Support returns the number of supporting tuples.
func (f *FreeSet) Support() int { return len(f.Tids) }
