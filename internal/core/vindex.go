package core

import "sort"

// RuleIndex maintains, incrementally, the set of tuples violating one CFD.
// Tuples are grouped by their (encoded) values on the CFD's LHS attributes,
// after filtering on the LHS pattern constants; each group tracks the
// multiplicity of every RHS value it contains. A group is violating when its
// tuples disagree on the RHS, or — for a constant-RHS CFD — when any of its
// tuples misses the RHS constant, in which case every tuple of the group is
// involved in a violating pair under the paper's exact pair semantics (§2.1.2).
//
// Insert and Delete cost O(|LHS|) map work per call, independent of the number
// of tuples indexed, which is what makes incremental detection sub-linear
// compared to a full rescan. The batch Violations function and the public
// repro/violation engine are both built on this type, so there is a single
// source of truth for what counts as a violating tuple.
//
// Groups are keyed on the LHS codes packed into one uint64 — directly for up
// to two LHS attributes, via a per-index pair-interning table for wider rules
// — so the hot path hashes a single integer instead of allocating and hashing
// a joined string. A tuple id must therefore fit in 32 bits, which the engine
// guarantees (ids are dense and pinned inserts are gap-bounded). Insert must
// not be called twice for a live id with the same index; delete (or update:
// delete then re-insert) the id first, as every caller in this repository
// does.
type RuleIndex struct {
	c      CFD
	lhs    []int // ascending LHS attribute indexes
	groups map[uint64]*vgroup
	// pairs folds LHS tuples wider than two attributes into one key: each
	// distinct (left, code) pair seen gets a dense id, and the fold chains
	// pair ids left to right. The map is a function, so equal final ids imply
	// equal chains — the packed key is injective for a fixed LHS arity.
	pairs    map[uint64]uint32
	nextPair uint32
	bad      int // total tuples currently in violating groups
	size     int // total tuples indexed (rows matching the LHS pattern)
}

// vgroup is the state of one LHS-value equivalence class. Members are stored
// as a dense slice of packed (id, RHS code) words — appends on insert,
// swap-removes on delete — with a lazily built id→position map once a group
// grows past idposThreshold, so inserts never pay per-member map writes and
// deletes from large groups stay O(1). RHS multiplicities live in two inline
// slots (almost every group carries at most two distinct RHS values) with a
// spill map for the rest.
type vgroup struct {
	members  []uint64    // uint64(id)<<32 | uint32(code), insertion order
	idpos    map[int]int // id -> position in members; nil until first needed
	rc1, rc2 int32       // RHS codes of the inline count slots (valid when n>0)
	n1, n2   int         // inline multiplicities; 0 = slot free
	spill    map[int32]int
	distinct int // number of distinct RHS codes present
	bad      bool
}

// idposThreshold is the group size past which delete-path member lookups
// switch from a linear scan to the idpos map.
const idposThreshold = 32

func packMember(id int, code int32) uint64 { return uint64(uint32(id))<<32 | uint64(uint32(code)) }

// NewRuleIndex returns an empty index for the CFD.
func NewRuleIndex(c CFD) *RuleIndex {
	return &RuleIndex{c: c, lhs: c.LHS.Attrs(), groups: make(map[uint64]*vgroup)}
}

// CFD returns the rule the index maintains.
func (ix *RuleIndex) CFD() CFD { return ix.c }

// matches reports whether the row matches the LHS pattern constants. Rows that
// do not match are outside the rule's scope and never indexed.
func (ix *RuleIndex) matches(row []int32) bool {
	for _, a := range ix.lhs {
		if p := ix.c.Tp[a]; p != Wildcard && row[a] != p {
			return false
		}
	}
	return true
}

// key packs the row's LHS codes into the group key, interning fold pairs as
// needed. Only the write path (Insert) may use it.
func (ix *RuleIndex) key(row []int32) uint64 {
	switch len(ix.lhs) {
	case 0:
		return 0
	case 1:
		return uint64(uint32(row[ix.lhs[0]]))
	case 2:
		return uint64(uint32(row[ix.lhs[0]]))<<32 | uint64(uint32(row[ix.lhs[1]]))
	}
	if ix.pairs == nil {
		ix.pairs = make(map[uint64]uint32)
	}
	left := uint32(row[ix.lhs[0]])
	for _, a := range ix.lhs[1:] {
		k := uint64(left)<<32 | uint64(uint32(row[a]))
		id, ok := ix.pairs[k]
		if !ok {
			id = ix.nextPair
			ix.nextPair++
			ix.pairs[k] = id
		}
		left = id
	}
	return uint64(left)
}

// lookupKey is key without interning: the second result is false when the
// fold hits a pair never seen on the write path, which means no group for the
// row exists. Read paths (IsViolating, under the engine's read lock) must use
// it — interning would mutate the pairs map.
func (ix *RuleIndex) lookupKey(row []int32) (uint64, bool) {
	switch len(ix.lhs) {
	case 0:
		return 0, true
	case 1:
		return uint64(uint32(row[ix.lhs[0]])), true
	case 2:
		return uint64(uint32(row[ix.lhs[0]]))<<32 | uint64(uint32(row[ix.lhs[1]])), true
	}
	left := uint32(row[ix.lhs[0]])
	for _, a := range ix.lhs[1:] {
		id, ok := ix.pairs[uint64(left)<<32|uint64(uint32(row[a]))]
		if !ok {
			return 0, false
		}
		left = id
	}
	return uint64(left), true
}

// incr counts one more member with the given RHS code.
func (g *vgroup) incr(code int32) {
	switch {
	case g.n1 > 0 && g.rc1 == code:
		g.n1++
	case g.n2 > 0 && g.rc2 == code:
		g.n2++
	default:
		// Order matters: a code spilled while both slots were busy must keep
		// counting in the spill even if a slot has freed up since, or its
		// count would split across the two places.
		if n, ok := g.spill[code]; ok {
			g.spill[code] = n + 1
			return
		}
		g.distinct++
		switch {
		case g.n1 == 0:
			g.rc1, g.n1 = code, 1
		case g.n2 == 0:
			g.rc2, g.n2 = code, 1
		default:
			if g.spill == nil {
				g.spill = make(map[int32]int)
			}
			g.spill[code] = 1
		}
	}
}

// decr counts one member with the given RHS code out. The code must be
// present (deletes always carry the row their insert carried).
func (g *vgroup) decr(code int32) {
	switch {
	case g.n1 > 0 && g.rc1 == code:
		if g.n1--; g.n1 == 0 {
			g.distinct--
		}
	case g.n2 > 0 && g.rc2 == code:
		if g.n2--; g.n2 == 0 {
			g.distinct--
		}
	default:
		if g.spill[code]--; g.spill[code] == 0 {
			delete(g.spill, code)
			g.distinct--
		}
	}
}

// count returns the multiplicity of the given RHS code.
func (g *vgroup) count(code int32) int {
	switch {
	case g.n1 > 0 && g.rc1 == code:
		return g.n1
	case g.n2 > 0 && g.rc2 == code:
		return g.n2
	default:
		return g.spill[code]
	}
}

// majority returns the group's most common RHS code, ties going to the code
// whose value sorts first: the value a variable rule's repair moves the rest
// of the group to.
func (g *vgroup) majority(values *Dict) int32 {
	var best int32
	bestN := 0
	consider := func(code int32, n int) {
		if n > bestN || (n == bestN && n > 0 && values.Value(code) < values.Value(best)) {
			best, bestN = code, n
		}
	}
	consider(g.rc1, g.n1)
	consider(g.rc2, g.n2)
	for code, n := range g.spill {
		consider(code, n)
	}
	return best
}

// lookup finds the member with the given id, without mutating the group, so
// it is safe under a read lock shared with other lookups.
func (g *vgroup) lookup(id int) (pos int, code int32, ok bool) {
	if g.idpos != nil {
		p, ok := g.idpos[id]
		if !ok {
			return 0, 0, false
		}
		return p, int32(uint32(g.members[p])), true
	}
	for p, m := range g.members {
		if int(m>>32) == id {
			return p, int32(uint32(m)), true
		}
	}
	return 0, 0, false
}

// locate is lookup for the delete path: past idposThreshold members it builds
// the idpos map first, making this and every later delete O(1).
func (g *vgroup) locate(id int) (pos int, code int32, ok bool) {
	if g.idpos == nil && len(g.members) > idposThreshold {
		g.idpos = make(map[int]int, len(g.members))
		for p, m := range g.members {
			g.idpos[int(m>>32)] = p
		}
	}
	return g.lookup(id)
}

// removeAt swap-removes the member at pos (holding tuple id).
func (g *vgroup) removeAt(pos, id int) {
	last := len(g.members) - 1
	moved := g.members[last]
	g.members[pos] = moved
	g.members = g.members[:last]
	if g.idpos != nil {
		delete(g.idpos, id)
		if pos != last {
			g.idpos[int(moved>>32)] = pos
		}
	}
}

// recompute re-derives the group's violating flag from its counts:
// disagreement on the RHS, or any tuple missing the RHS constant of a
// constant-RHS rule.
func (g *vgroup) recompute(rhsConst int32) {
	g.bad = g.distinct > 1 ||
		(rhsConst != Wildcard && len(g.members) > 0 && g.count(rhsConst) < len(g.members))
}

// Insert adds tuple id with the given encoded row. Rows not matching the LHS
// pattern are ignored. Only row entries at the rule's LHS and RHS attribute
// indexes are read; the row is not retained.
func (ix *RuleIndex) Insert(id int, row []int32) { ix.InsertObserve(id, row, nil) }

// InsertObserve is Insert reporting every violating-set membership change the
// insert causes: observe(t, true) when tuple t becomes violating, observe(t,
// false) when it stops. The inserted tuple itself is reported like any other
// group member, so the calls are exactly the symmetric difference between the
// rule's violating set before and after — O(changes), since badness flips
// touch whole groups and everything else touches only id. A nil observe is
// plain Insert.
func (ix *RuleIndex) InsertObserve(id int, row []int32, observe func(id int, violating bool)) {
	if !ix.matches(row) {
		return
	}
	k := ix.key(row)
	g := ix.groups[k]
	if g == nil {
		g = &vgroup{}
		ix.groups[k] = g
	}
	wasBad := g.bad
	if wasBad {
		ix.bad -= len(g.members)
	}
	code := row[ix.c.RHS]
	g.members = append(g.members, packMember(id, code))
	ix.size++
	if g.idpos != nil {
		g.idpos[id] = len(g.members) - 1
	}
	g.incr(code)
	g.recompute(ix.c.Tp[ix.c.RHS])
	if g.bad {
		ix.bad += len(g.members)
	}
	if observe == nil || wasBad == g.bad {
		if wasBad && g.bad && observe != nil {
			observe(id, true) // joined a group that stays violating
		}
		return
	}
	// The group's badness flipped: every member's membership changed — except
	// id itself on a bad->good flip, which it was never part of.
	for _, m := range g.members {
		t := int(m >> 32)
		if !g.bad && t == id {
			continue
		}
		observe(t, g.bad)
	}
}

// Delete removes tuple id, given the same encoded row it was inserted with.
// Unknown ids and non-matching rows are ignored.
func (ix *RuleIndex) Delete(id int, row []int32) { ix.DeleteObserve(id, row, nil) }

// DeleteObserve is Delete with the same change reporting as InsertObserve.
func (ix *RuleIndex) DeleteObserve(id int, row []int32, observe func(id int, violating bool)) {
	if !ix.matches(row) {
		return
	}
	k, ok := ix.lookupKey(row)
	if !ok {
		return
	}
	g := ix.groups[k]
	if g == nil {
		return
	}
	pos, code, ok := g.locate(id)
	if !ok {
		return
	}
	wasBad := g.bad
	if wasBad {
		ix.bad -= len(g.members)
	}
	g.removeAt(pos, id)
	g.decr(code)
	ix.size--
	if len(g.members) == 0 {
		delete(ix.groups, k)
		if wasBad && observe != nil {
			observe(id, false)
		}
		return
	}
	g.recompute(ix.c.Tp[ix.c.RHS])
	if g.bad {
		ix.bad += len(g.members)
	}
	if observe == nil {
		return
	}
	if wasBad && !g.bad {
		// The departure healed the group: id and every survivor leave the
		// violating set.
		observe(id, false)
		for _, m := range g.members {
			observe(int(m>>32), false)
		}
		return
	}
	if wasBad { // stays bad: only the departed tuple's membership changed
		observe(id, false)
		return
	}
	if g.bad { // good->bad on delete cannot happen; kept for exactness
		for _, m := range g.members {
			observe(int(m>>32), true)
		}
	}
}

// IsViolating reports whether tuple id, with the given encoded row, is
// currently involved in a violation of the rule.
func (ix *RuleIndex) IsViolating(id int, row []int32) bool {
	if !ix.matches(row) {
		return false
	}
	k, ok := ix.lookupKey(row)
	if !ok {
		return false
	}
	g := ix.groups[k]
	if g == nil || !g.bad {
		return false
	}
	_, _, ok = g.lookup(id)
	return ok
}

// BadTuples returns the number of tuples currently involved in a violation,
// in O(1).
func (ix *RuleIndex) BadTuples() int { return ix.bad }

// Tuples returns the number of tuples currently indexed — the rows matching
// the rule's LHS pattern constants, i.e. the rule's live support — in O(1).
func (ix *RuleIndex) Tuples() int { return ix.size }

// Groups returns the number of distinct LHS-value equivalence classes
// currently holding at least one tuple, in O(1).
func (ix *RuleIndex) Groups() int { return len(ix.groups) }

// Violating returns the ids of all tuples currently involved in a violation,
// in ascending order.
func (ix *RuleIndex) Violating() []int {
	out := make([]int, 0, ix.bad)
	for _, g := range ix.groups {
		if !g.bad {
			continue
		}
		for _, m := range g.members {
			out = append(out, int(m>>32))
		}
	}
	sort.Ints(out)
	return out
}

// Repairs is the repair rule, read off the groups: it visits every member of
// a violating group whose RHS code is not the one the group should carry —
// the rule's RHS constant, or for a variable rule the group's majority value
// (values decodes the RHS attribute's codes to break ties). These are the
// tuples most likely to be the erroneous ones, each with the value that would
// make it agree; the rest of a violating group is merely dragged in by the
// pair semantics. Visit order is unspecified. Like IsViolating it mutates
// nothing, so it is safe under a shared read lock.
func (ix *RuleIndex) Repairs(values *Dict, visit func(id int, have, want int32)) {
	rhsConst := ix.c.Tp[ix.c.RHS]
	for _, g := range ix.groups {
		if !g.bad {
			continue
		}
		want := rhsConst
		if want == Wildcard {
			want = g.majority(values)
		}
		for _, m := range g.members {
			if have := int32(uint32(m)); have != want {
				visit(int(m>>32), have, want)
			}
		}
	}
}
