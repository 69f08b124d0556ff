package core

import (
	"fmt"
	"slices"
)

// GroupIndex maintains, incrementally, the violation state of every CFD over
// one LHS attribute set X — the rows of the pattern tableaux that share X
// (§2.3). All of them partition the tuples identically, by their values on X
// (the partition π_X of §4.4), so the partition is stored once: tuples are
// grouped by their (encoded) X values, and a group's members carry, next to
// the tuple id, the tuple's code on every RHS attribute the rules name. A rule
// is then only a filter — its LHS pattern constants select the groups it
// applies to — plus the RHS attribute it reads and three counters.
//
// A group violates a rule that applies to it when its tuples disagree on the
// rule's RHS attribute, or — for a constant-RHS rule — when any of its tuples
// misses the RHS constant; in both cases every tuple of the group is involved
// in a violating pair under the paper's exact pair semantics (§2.1.2).
//
// Insert and Delete cost one hash lookup on X plus an integer compare per
// rule, independent of the number of tuples indexed. Tuples no rule applies
// to are not stored. The batch Violations function is the one-rule use of this
// type and the repro/violation engine keeps one GroupIndex per distinct X of
// its rule set, so there is a single source of truth for what counts as a
// violating tuple.
//
// # Layout
//
// Groups are keyed on the X codes packed into one uint64 — directly for up to
// two attributes, via a pair-interning table for wider X — so the hot path
// hashes a single integer. Most groups are tiny (on mined rule sets nine in
// ten hold a single tuple), so a group of up to smallMax members is nothing
// but a run of words in one arena shared by the whole index — a header, then
// stride words per member — and is judged by scanning its own members. Only
// a group that outgrows smallMax gets a heap object of its own, with per-RHS
// value counts and, from its first delete on, an id → position map. Arena,
// group map and pair tables hold no pointers, so the garbage collector never
// walks them. A tuple id must fit in 32 bits, which the engine guarantees (ids
// are dense and pinned inserts are gap-bounded). Insert must not be called
// twice for a live id; delete (or update: delete then re-insert) the id first,
// as every caller in this repository does.
//
// Insert and Delete need exclusive access; every other method only reads, so
// any number of them may run concurrently under a shared lock.
type GroupIndex struct {
	lhs    []int // X, ascending attribute indexes
	rhs    []int // distinct RHS attributes of the rules; a member stores one code per entry
	stride int   // words per member: the tuple id, then len(rhs) codes
	arity  int   // length of the rules' pattern tuples, i.e. of a row
	rules  []groupRule

	// groups maps packed X codes to a group reference: the arena offset of a
	// small group's run, or largeBit | position in large.
	groups map[uint64]uint32
	// pairs folds X tuples wider than two attributes into one key: each
	// distinct (left, code) pair seen gets a dense id, and the fold chains pair
	// ids left to right. The map is a function, so equal final ids imply equal
	// chains — the packed key is injective for a fixed arity — and pairKeys,
	// its inverse, unfolds a key back into the X codes.
	pairs    map[uint64]uint32
	pairKeys []uint64

	// arena holds the runs of the small groups. A run of capacity class c is
	// one header word (members | class<<8) followed by room for 1<<c members;
	// free[c] heads the list of released runs of that class, linked through
	// their header words. Offset 0 is never handed out: it means "no run".
	arena []uint32
	free  [smallClasses]uint32
	// large holds the groups past smallMax; freeLarge lists its vacated
	// positions for reuse.
	large     []*largeGroup
	freeLarge []uint32

	// Scratch of the write path (Insert, Delete).
	hit    []int
	before []slotState
}

const (
	// smallMax is the number of members past which a group is promoted from an
	// arena run, judged by scanning, to a largeGroup, judged from counts.
	smallMax     = 8
	smallClasses = 4 // run capacities 1, 2, 4 and 8 members
	largeBit     = 1 << 31
)

// groupRule is one rule of the index: which groups it applies to, which RHS
// slot it reads, and its live counters.
type groupRule struct {
	c      CFD
	consts []lhsConst // the LHS pattern's constants
	slot   int        // position of the RHS attribute in GroupIndex.rhs
	want   int32      // RHS pattern entry: a constant's code, or Wildcard
	tuples int        // members of the groups the rule applies to
	groups int        // groups the rule applies to
	bad    int        // members of the groups violating the rule
}

type lhsConst struct {
	attr int
	code int32
}

// matches reports whether the row carries the rule's LHS pattern constants.
// Rows that do not are outside the rule's scope.
func (r *groupRule) matches(row []int32) bool {
	for _, c := range r.consts {
		if row[c.attr] != c.code {
			return false
		}
	}
	return true
}

// violatedBy reports whether a non-empty group in the given state on the
// rule's RHS attribute violates the rule.
func (r *groupRule) violatedBy(st slotState) bool {
	return !st.agree || (r.want != Wildcard && st.code != r.want)
}

// slotState summarises a group's codes on one RHS attribute: whether its
// members all carry the same code and, if so, which.
type slotState struct {
	agree bool
	code  int32
}

// group is a located group: its n*stride member words and, past smallMax,
// its bookkeeping. The zero group has no members.
type group struct {
	m  []uint32
	lg *largeGroup
}

// largeGroup is a group that outgrew its arena run.
type largeGroup struct {
	members []uint32         // stride words per member, insertion order
	idpos   map[uint32]int32 // id -> member position; nil until the first delete
	counts  []rhsCounts      // one per RHS slot
}

// rhsCounts holds the multiplicity of every code a large group carries on one
// RHS attribute: two inline slots (almost every group carries at most two
// distinct values) with a spill map for the rest.
type rhsCounts struct {
	rc1, rc2 int32 // codes of the inline slots (valid when n > 0)
	n1, n2   int32 // inline multiplicities; 0 = slot free
	distinct int32 // number of distinct codes present
	spill    map[int32]int32
}

// NewGroupIndex returns an empty index for the given rules, which must be at
// least one and share their LHS attribute set. Rule positions in the slice are
// the rule numbers every other method speaks in.
func NewGroupIndex(rules []CFD) *GroupIndex {
	if len(rules) == 0 {
		panic("core: group index without rules")
	}
	ix := &GroupIndex{
		lhs:    rules[0].LHS.Attrs(),
		arity:  len(rules[0].Tp),
		rules:  make([]groupRule, len(rules)),
		groups: make(map[uint64]uint32),
		arena:  make([]uint32, 1),
	}
	for i, c := range rules {
		if c.LHS != rules[0].LHS {
			panic(fmt.Sprintf("core: group index over LHS %s given a rule over %s", rules[0].LHS, c.LHS))
		}
		r := groupRule{c: c, want: c.Tp[c.RHS], slot: slices.Index(ix.rhs, c.RHS)}
		if r.slot < 0 {
			r.slot = len(ix.rhs)
			ix.rhs = append(ix.rhs, c.RHS)
		}
		for _, a := range ix.lhs {
			if p := c.Tp[a]; p != Wildcard {
				r.consts = append(r.consts, lhsConst{a, p})
			}
		}
		ix.rules[i] = r
	}
	ix.stride = 1 + len(ix.rhs)
	ix.before = make([]slotState, len(ix.rhs))
	return ix
}

// LHS returns the attribute set the index groups on.
func (ix *GroupIndex) LHS() AttrSet { return ix.rules[0].c.LHS }

// CFD returns rule r.
func (ix *GroupIndex) CFD(r int) CFD { return ix.rules[r].c }

// Tuples returns the number of tuples rule r applies to — the rows matching
// its LHS pattern constants, i.e. the rule's live support — in O(1).
func (ix *GroupIndex) Tuples(r int) int { return ix.rules[r].tuples }

// Groups returns the number of distinct X-value equivalence classes among the
// tuples rule r applies to, in O(1).
func (ix *GroupIndex) Groups(r int) int { return ix.rules[r].groups }

// BadTuples returns the number of tuples currently involved in a violation of
// rule r, in O(1).
func (ix *GroupIndex) BadTuples(r int) int { return ix.rules[r].bad }

// key packs the row's X codes into the group key, interning fold pairs as
// needed. Only Insert may use it.
func (ix *GroupIndex) key(row []int32) uint64 {
	if len(ix.lhs) <= 2 {
		k, _ := ix.lookupKey(row)
		return k
	}
	if ix.pairs == nil {
		ix.pairs = make(map[uint64]uint32)
	}
	left := uint32(row[ix.lhs[0]])
	for _, a := range ix.lhs[1:] {
		k := uint64(left)<<32 | uint64(uint32(row[a]))
		id, ok := ix.pairs[k]
		if !ok {
			id = uint32(len(ix.pairKeys))
			ix.pairKeys = append(ix.pairKeys, k)
			ix.pairs[k] = id
		}
		left = id
	}
	return uint64(left)
}

// lookupKey is key without interning: the second result is false when the
// fold hits a pair never seen by Insert, which means no group for the row
// exists. Everything but Insert must use it — interning would mutate the pair
// tables under what may be a shared read lock.
func (ix *GroupIndex) lookupKey(row []int32) (uint64, bool) {
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

// unkey writes the X codes packed in a group key back into row.
func (ix *GroupIndex) unkey(k uint64, row []int32) {
	switch len(ix.lhs) {
	case 0:
	case 1:
		row[ix.lhs[0]] = int32(uint32(k))
	case 2:
		row[ix.lhs[0]], row[ix.lhs[1]] = int32(uint32(k>>32)), int32(uint32(k))
	default:
		left := uint32(k)
		for i := len(ix.lhs) - 1; i > 0; i-- {
			pair := ix.pairKeys[left]
			row[ix.lhs[i]], left = int32(uint32(pair)), uint32(pair>>32)
		}
		row[ix.lhs[0]] = int32(left)
	}
}

// at resolves a group reference.
func (ix *GroupIndex) at(ref uint32) group {
	if ref&largeBit != 0 {
		lg := ix.large[ref&^largeBit]
		return group{lg.members, lg}
	}
	n := int(ix.arena[ref] & 0xff)
	return group{m: ix.arena[ref+1 : int(ref)+1+n*ix.stride]}
}

// state summarises the group's codes in one RHS slot: a scan of a small
// group's members, a look at a large group's counts. An empty group agrees.
func (ix *GroupIndex) state(g group, slot int) slotState {
	if g.lg != nil {
		c := &g.lg.counts[slot]
		return slotState{c.distinct <= 1, c.single()}
	}
	if len(g.m) == 0 {
		return slotState{agree: true}
	}
	first := g.m[1+slot]
	for i := ix.stride; i < len(g.m); i += ix.stride {
		if g.m[i+1+slot] != first {
			return slotState{}
		}
	}
	return slotState{true, int32(first)}
}

// alloc hands out a run of the given capacity class with an undefined header.
func (ix *GroupIndex) alloc(class uint32) uint32 {
	if off := ix.free[class]; off != 0 {
		ix.free[class] = ix.arena[off]
		return off
	}
	off, need := len(ix.arena), 1+ix.stride<<class
	if off+need > largeBit {
		panic("core: group index arena exhausted")
	}
	ix.arena = slices.Grow(ix.arena, need)[:off+need]
	return uint32(off)
}

// release returns a run to its class's free list.
func (ix *GroupIndex) release(off, class uint32) {
	ix.arena[off] = ix.free[class]
	ix.free[class] = off
}

// add appends the member (id, the row's RHS codes) to the group keyed k, where
// ref is the group's current reference or 0 when it does not exist yet: the
// run is created, moved to the next capacity class or promoted to a largeGroup
// as needed. It returns the group as it now stands.
func (ix *GroupIndex) add(k uint64, ref uint32, id int, row []int32) group {
	if ref&largeBit != 0 {
		lg := ix.large[ref&^largeBit]
		if lg.idpos != nil {
			lg.idpos[uint32(id)] = int32(len(lg.members) / ix.stride)
		}
		lg.members = append(lg.members, uint32(id))
		for s, a := range ix.rhs {
			lg.members = append(lg.members, uint32(row[a]))
			lg.counts[s].incr(row[a])
		}
		return group{lg.members, lg}
	}
	var n, class uint32
	if ref == 0 {
		ref = ix.alloc(0)
		ix.groups[k] = ref
	} else {
		n, class = ix.arena[ref]&0xff, ix.arena[ref]>>8
	}
	if n == 1<<class { // the run is full
		if n == smallMax {
			old := ix.arena[ref+1 : ref+1+n*uint32(ix.stride)]
			lg := &largeGroup{
				members: append(make([]uint32, 0, 2*len(old)), old...),
				counts:  make([]rhsCounts, len(ix.rhs)),
			}
			for i := 0; i < len(old); i += ix.stride {
				for s := range ix.rhs {
					lg.counts[s].incr(int32(old[i+1+s]))
				}
			}
			ix.release(ref, class)
			if f := len(ix.freeLarge); f > 0 {
				ref, ix.freeLarge = ix.freeLarge[f-1], ix.freeLarge[:f-1]
				ix.large[ref] = lg
			} else {
				ref = uint32(len(ix.large))
				ix.large = append(ix.large, lg)
			}
			ref |= largeBit
			ix.groups[k] = ref
			return ix.add(k, ref, id, row)
		}
		grown := ix.alloc(class + 1) // may move the arena: slice it afresh below
		copy(ix.arena[grown+1:], ix.arena[ref+1:ref+1+n*uint32(ix.stride)])
		ix.release(ref, class)
		ref, class = grown, class+1
		ix.groups[k] = ref
	}
	at := ref + 1 + n*uint32(ix.stride)
	ix.arena[at] = uint32(id)
	for s, a := range ix.rhs {
		ix.arena[int(at)+1+s] = uint32(row[a])
	}
	ix.arena[ref] = (n + 1) | class<<8
	return ix.at(ref)
}

// locate returns the position of member id in the group, or -1. It is the
// delete path's lookup: a large group builds its idpos map on the first call,
// making this and every later delete O(1).
func (ix *GroupIndex) locate(g group, id int) int {
	if g.lg == nil {
		for i := 0; i < len(g.m); i += ix.stride {
			if g.m[i] == uint32(id) {
				return i / ix.stride
			}
		}
		return -1
	}
	if g.lg.idpos == nil {
		g.lg.idpos = make(map[uint32]int32, len(g.m)/ix.stride)
		for i := 0; i < len(g.m); i += ix.stride {
			g.lg.idpos[g.m[i]] = int32(i / ix.stride)
		}
	}
	if pos, ok := g.lg.idpos[uint32(id)]; ok {
		return int(pos)
	}
	return -1
}

// remove swap-removes the member at position pos of the group keyed k and
// returns what is left of the group. A group left empty is dropped: its run or
// its large position goes back on the free list and its key leaves the map.
func (ix *GroupIndex) remove(k uint64, ref uint32, pos int) group {
	g := ix.at(ref)
	at, last := pos*ix.stride, len(g.m)-ix.stride
	if lg := g.lg; lg != nil {
		for s := range ix.rhs {
			lg.counts[s].decr(int32(g.m[at+1+s]))
		}
		delete(lg.idpos, g.m[at])
		if at != last {
			lg.idpos[g.m[last]] = int32(pos)
		}
	}
	copy(g.m[at:at+ix.stride], g.m[last:])
	g.m = g.m[:last]
	switch {
	case g.lg != nil && last > 0:
		g.lg.members = g.m
	case g.lg != nil:
		ix.large[ref&^largeBit] = nil
		ix.freeLarge = append(ix.freeLarge, ref&^largeBit)
		delete(ix.groups, k)
	case last > 0:
		ix.arena[ref]--
	default:
		ix.release(ref, ix.arena[ref]>>8)
		delete(ix.groups, k)
	}
	return g
}

// match collects, in the write path's scratch, the rules that apply to row.
func (ix *GroupIndex) match(row []int32) []int {
	ix.hit = ix.hit[:0]
	for r := range ix.rules {
		if ix.rules[r].matches(row) {
			ix.hit = append(ix.hit, r)
		}
	}
	return ix.hit
}

// Insert adds tuple id with the given encoded row, of which only the entries
// at the X and RHS attribute indexes are read; the row is not retained. A row
// no rule applies to is ignored.
//
// A non-nil observe is told every violating-set membership change the insert
// causes: observe(r, t, true) when tuple t becomes violating under rule r. The
// inserted tuple itself is reported like any other group member, so the calls
// are exactly the difference between each rule's violating set before and
// after — O(changes), since a group turning bad touches the whole group and
// everything else touches only id. (An insert never heals a group, so it
// reports no tuple leaving.)
func (ix *GroupIndex) Insert(id int, row []int32, observe func(rule, id int, violating bool)) {
	hit := ix.match(row)
	if len(hit) == 0 {
		return
	}
	k := ix.key(row)
	ref := ix.groups[k]
	var g group
	if ref != 0 {
		g = ix.at(ref)
	}
	n := len(g.m) / ix.stride
	for s := range ix.rhs {
		ix.before[s] = ix.state(g, s)
	}
	g = ix.add(k, ref, id, row)
	for _, r := range hit {
		rule := &ix.rules[r]
		rule.tuples++
		if n == 0 {
			rule.groups++
		}
		// The state after the insert follows from the state before: the group
		// agrees iff it was empty or agreed on the code the new member brings.
		st, code := ix.before[rule.slot], row[rule.c.RHS]
		was := n > 0 && rule.violatedBy(st)
		now := rule.violatedBy(slotState{st.agree && (n == 0 || st.code == code), code})
		switch {
		case was: // joined a group that stays violating
			rule.bad++
			if observe != nil {
				observe(r, id, true)
			}
		case now: // the group turned bad: every member's membership changed
			rule.bad += n + 1
			if observe != nil {
				for i := 0; i < len(g.m); i += ix.stride {
					observe(r, int(g.m[i]), true)
				}
			}
		}
	}
}

// Delete removes tuple id, given the same encoded row it was inserted with.
// Unknown ids and rows no rule applies to are ignored. observe is told the
// memberships the delete ends, as observe(r, t, false): the deleted tuple's
// own and, when its departure heals the group, every survivor's. (A delete
// never turns a group bad.)
func (ix *GroupIndex) Delete(id int, row []int32, observe func(rule, id int, violating bool)) {
	hit := ix.match(row)
	if len(hit) == 0 {
		return
	}
	k, ok := ix.lookupKey(row)
	if !ok {
		return
	}
	ref := ix.groups[k]
	if ref == 0 {
		return
	}
	g := ix.at(ref)
	pos := ix.locate(g, id)
	if pos < 0 {
		return
	}
	n := len(g.m) / ix.stride
	for s := range ix.rhs {
		ix.before[s] = ix.state(g, s)
	}
	g = ix.remove(k, ref, pos)
	for _, r := range hit {
		rule := &ix.rules[r]
		rule.tuples--
		if n == 1 {
			rule.groups--
		}
		if !rule.violatedBy(ix.before[rule.slot]) {
			continue
		}
		if observe != nil {
			observe(r, id, false)
		}
		if n > 1 && rule.violatedBy(ix.state(g, rule.slot)) {
			rule.bad-- // stays bad: only the departed tuple's membership changed
			continue
		}
		rule.bad -= n
		if observe != nil {
			for i := 0; i < len(g.m); i += ix.stride {
				observe(r, int(g.m[i]), false)
			}
		}
	}
}

// Violated calls visit with every rule the tuple with the given encoded row —
// which must be indexed — currently violates, in rule order. It mutates
// nothing, so it is safe under a shared read lock.
func (ix *GroupIndex) Violated(row []int32, visit func(rule int)) {
	k, ok := ix.lookupKey(row)
	if !ok {
		return
	}
	ref := ix.groups[k]
	if ref == 0 {
		return
	}
	g := ix.at(ref)
	for r := range ix.rules {
		rule := &ix.rules[r]
		if rule.bad > 0 && rule.matches(row) && rule.violatedBy(ix.state(g, rule.slot)) {
			visit(r)
		}
	}
}

// walk visits, in one pass over the groups, every (rule, group) pair where the
// group violates the rule, for the rules listed in active.
func (ix *GroupIndex) walk(active []int, visit func(r int, g group)) {
	if len(active) == 0 {
		return
	}
	// A single tuple agrees with itself and a group's X codes only matter to
	// rules with LHS constants, so most groups are settled without either.
	var constRHS, constLHS bool
	for _, r := range active {
		constRHS = constRHS || ix.rules[r].want != Wildcard
		constLHS = constLHS || len(ix.rules[r].consts) > 0
	}
	row := make([]int32, ix.arity)
	states := make([]slotState, len(ix.rhs))
	for k, ref := range ix.groups {
		g := ix.at(ref)
		if len(g.m) == ix.stride && !constRHS {
			continue
		}
		if constLHS {
			ix.unkey(k, row)
		}
		for s := range states {
			states[s] = ix.state(g, s)
		}
		for _, r := range active {
			if rule := &ix.rules[r]; rule.violatedBy(states[rule.slot]) && rule.matches(row) {
				visit(r, g)
			}
		}
	}
}

// Violating returns, per rule, the ids of all tuples currently involved in a
// violation of it, ascending — in one pass over the groups however many rules
// there are. A non-nil only restricts the work to the rules it marks; the
// others, like rules nothing violates, get a nil list.
func (ix *GroupIndex) Violating(only []bool) [][]int {
	out := make([][]int, len(ix.rules))
	var active []int
	for r := range ix.rules {
		if bad := ix.rules[r].bad; bad > 0 && (only == nil || only[r]) {
			active = append(active, r)
			out[r] = make([]int, 0, bad)
		}
	}
	ix.walk(active, func(r int, g group) {
		for i := 0; i < len(g.m); i += ix.stride {
			out[r] = append(out[r], int(g.m[i]))
		}
	})
	for _, r := range active {
		slices.Sort(out[r])
	}
	return out
}

// Repairs is the repair rule, read off the groups: it visits every member of
// a group violating rule r whose code on r's RHS attribute is not the one the
// group should carry — the rule's RHS constant, or for a variable rule the
// group's majority value (dict returns an attribute's dictionary, to break
// ties on values). These are the tuples most likely to be the erroneous ones,
// each with the value that would make it agree; the rest of a violating group
// is merely dragged in by the pair semantics. Visit order is unspecified. Like
// Violating it is one pass over the groups and mutates nothing, so it is safe
// under a shared read lock.
func (ix *GroupIndex) Repairs(dict func(attr int) *Dict, visit func(rule, id int, have, want int32)) {
	var active []int
	for r := range ix.rules {
		if ix.rules[r].bad > 0 {
			active = append(active, r)
		}
	}
	ix.walk(active, func(r int, g group) {
		rule := &ix.rules[r]
		want := rule.want
		if want == Wildcard {
			want = ix.majority(g, rule.slot, dict(rule.c.RHS))
		}
		for i := 0; i < len(g.m); i += ix.stride {
			if have := int32(g.m[i+1+rule.slot]); have != want {
				visit(r, int(g.m[i]), have, want)
			}
		}
	})
}

// majority returns the group's most common code in one RHS slot, ties going
// to the code whose value sorts first: the value a variable rule's repair
// moves the rest of the group to.
func (ix *GroupIndex) majority(g group, slot int, values *Dict) int32 {
	if g.lg != nil {
		return g.lg.counts[slot].majority(values)
	}
	var best int32
	bestN := 0
	for i := 0; i < len(g.m); i += ix.stride {
		code, n := g.m[i+1+slot], 0
		for j := 0; j < len(g.m); j += ix.stride {
			if g.m[j+1+slot] == code {
				n++
			}
		}
		if n > bestN || (n == bestN && values.Value(int32(code)) < values.Value(best)) {
			best, bestN = int32(code), n
		}
	}
	return best
}

// incr counts one more member with the given code.
func (c *rhsCounts) incr(code int32) {
	switch {
	case c.n1 > 0 && c.rc1 == code:
		c.n1++
	case c.n2 > 0 && c.rc2 == code:
		c.n2++
	default:
		// Order matters: a code spilled while both slots were busy must keep
		// counting in the spill even if a slot has freed up since, or its
		// count would split across the two places.
		if n, ok := c.spill[code]; ok {
			c.spill[code] = n + 1
			return
		}
		c.distinct++
		switch {
		case c.n1 == 0:
			c.rc1, c.n1 = code, 1
		case c.n2 == 0:
			c.rc2, c.n2 = code, 1
		default:
			if c.spill == nil {
				c.spill = make(map[int32]int32)
			}
			c.spill[code] = 1
		}
	}
}

// decr counts one member with the given code out. The code must be present
// (deletes always carry the row their insert carried).
func (c *rhsCounts) decr(code int32) {
	switch {
	case c.n1 > 0 && c.rc1 == code:
		if c.n1--; c.n1 == 0 {
			c.distinct--
		}
	case c.n2 > 0 && c.rc2 == code:
		if c.n2--; c.n2 == 0 {
			c.distinct--
		}
	default:
		if c.spill[code]--; c.spill[code] == 0 {
			delete(c.spill, code)
			c.distinct--
		}
	}
}

// single returns the one code present when distinct is 1.
func (c *rhsCounts) single() int32 {
	switch {
	case c.n1 > 0:
		return c.rc1
	case c.n2 > 0:
		return c.rc2
	}
	for code := range c.spill {
		return code
	}
	return 0
}

// majority returns the most common code, ties going to the code whose value
// sorts first.
func (c *rhsCounts) majority(values *Dict) int32 {
	var best, bestN int32
	consider := func(code, n int32) {
		if n > bestN || (n == bestN && n > 0 && values.Value(code) < values.Value(best)) {
			best, bestN = code, n
		}
	}
	consider(c.rc1, c.n1)
	consider(c.rc2, c.n2)
	for code, n := range c.spill {
		consider(code, n)
	}
	return best
}
