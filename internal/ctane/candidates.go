package ctane

import (
	"slices"

	"repro/internal/core"
)

// candidateSet represents the set C+(X, sp) of candidate right-hand sides of a
// lattice element (§4.1). Conceptually it is a subset of
// attr(R) × (dom ∪ {"_"}); because it starts as the full universe and only
// ever shrinks, it is stored as its complement: attributes removed entirely
// plus individually removed (attribute, value) pairs.
type candidateSet struct {
	removedAttrs core.AttrSet
	// removedVals holds the removed pairs packed by pair, ascending and
	// distinct. Pairs on an attribute that was removed later stay behind;
	// removedAttrs is consulted first.
	removedVals []uint64
}

// pair packs (attr, val) into one word that sorts by attribute first. The
// wildcard value is represented by core.Wildcard.
func pair(attr int, val int32) uint64 {
	return uint64(attr)<<32 | uint64(uint32(val))
}

// has reports whether (attr, val) is still a candidate.
func (c *candidateSet) has(attr int, val int32) bool {
	if c.removedAttrs.Has(attr) {
		return false
	}
	_, removed := slices.BinarySearch(c.removedVals, pair(attr, val))
	return !removed
}

// removeVal removes a single (attr, val) pair.
func (c *candidateSet) removeVal(attr int, val int32) {
	if c.removedAttrs.Has(attr) {
		return
	}
	p := pair(attr, val)
	if i, removed := slices.BinarySearch(c.removedVals, p); !removed {
		c.removedVals = slices.Insert(c.removedVals, i, p)
	}
}

// removeAttrs removes every candidate on the given attributes.
func (c *candidateSet) removeAttrs(attrs core.AttrSet) {
	c.removedAttrs = c.removedAttrs.Union(attrs)
}

// allAttrsRemoved reports whether every attribute has been removed entirely.
// It is a conservative emptiness test: a true result implies C+ is empty, so
// pruning on it is always safe, while some genuinely empty sets may be missed
// (costing time, never correctness).
func (c *candidateSet) allAttrsRemoved(all core.AttrSet) bool {
	return all.SubsetOf(c.removedAttrs)
}

// intersectCandidates returns the intersection of the candidate sets of the
// given elements, which in the complement representation is the union of
// their removals.
func intersectCandidates(elems []*element) candidateSet {
	var out candidateSet
	pairs := 0
	for _, e := range elems {
		out.removedAttrs = out.removedAttrs.Union(e.cplus.removedAttrs)
		pairs += len(e.cplus.removedVals)
	}
	if pairs == 0 {
		return out
	}
	out.removedVals = make([]uint64, 0, pairs)
	for _, e := range elems {
		for _, p := range e.cplus.removedVals {
			if !out.removedAttrs.Has(int(p >> 32)) {
				out.removedVals = append(out.removedVals, p)
			}
		}
	}
	slices.Sort(out.removedVals)
	out.removedVals = slices.Compact(out.removedVals)
	return out
}
