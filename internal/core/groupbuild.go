package core

import (
	"slices"
)

// BuildScratch is the transient memory of GroupIndex.Build and Root.Build:
// the ids being built sorted by their codes, the sort's second buffers and
// counters, the table of the rules' LHS constants and a group's rule list.
// Its buffers grow to the largest build and are reused by the next, so a
// worker that builds several indexes in turn keeps one. The zero value is ready to use; a
// BuildScratch is not safe for concurrent use.
type BuildScratch struct {
	keys, keys2 []uint64 // |X| ≤ 2: packed X codes, parallel to ids
	ids, ids2   []uint32
	count       []int32
	hit         []int32
	states      []slotState
	known       []bool
	table       ruleTable
}

// Build fills the empty index with the tuples ids lists, ascending, whose
// rows the relation holds. It leaves the state Insert leaves when called on
// each id in turn — the same groups holding the same members in id order, the
// same counters — but reaches it group by group, the way §4.4 builds the
// partition π_X: the ids are sorted on their X codes by one stable counting
// pass per attribute of X, so that each group is a run of equal codes; the
// rules that apply to a group are looked up by its X codes in a table of the
// rules' LHS constants; and each group is written once, at its final size. A
// first pass over the runs counts what the second writes, so the group map,
// the arena and the large-group list are allocated once. A refinement stores
// no group, so its Build is the counting pass alone: it reads the relation,
// not the root, and may run before or beside the root's.
func (ix *GroupIndex) Build(ids []int32, s *BuildScratch) {
	if ix.members != 0 {
		panic("core: build into a non-empty index")
	}
	t := &s.table
	t.reset(ix)
	n := s.sort(ix, t, ids)
	var slabs *largeSlabs
	if ix.root == nil {
		var size storeSize
		for i := 0; i < n; {
			end := s.runEnd(ix, i, n)
			size.add(end - i)
			i = end
		}
		ix.groups = make(map[uint64]uint64, size.groups)
		slabs = ix.reserve(size)
	}
	s.states = slices.Grow(s.states[:0], len(ix.rhs))[:len(ix.rhs)]
	s.known = slices.Grow(s.known[:0], len(ix.rhs))[:len(ix.rhs)]
	for i := 0; i < n; {
		end := s.runEnd(ix, i, n)
		s.hit = t.lookup(ix, s.code(ix, i), s.hit[:0])
		ix.fill(s, slabs, i, end)
		i = end
	}
}

// covers returns how many of the tuples ids lists some rule of the index
// applies to: the tuples a Build over them would hold. It reads only their
// codes on X.
func (ix *GroupIndex) covers(ids []int32, s *BuildScratch) int {
	t := &s.table
	t.reset(ix)
	if len(t.always) > 0 {
		return len(ids)
	}
	n := 0
	for _, id := range ids {
		if t.any(ix, ix.xcodes(int(id))) {
			n++
		}
	}
	return n
}

// storeSize tallies what a build stores: its groups, the arena words of its
// runs, and its large groups and their members.
type storeSize struct{ groups, words, larges, members int }

// add counts a group of m members.
func (z *storeSize) add(m int) {
	z.groups++
	switch {
	case m > smallMax:
		z.larges++
		z.members += m
	case m > 1:
		z.words += 1 + 2<<runClass(m)
	}
}

// largeSlabs holds the large groups of a build, their members and their
// counts, carved one group at a time: three allocations per index, not three
// per large group. A group that outgrows its members moves them out as
// Insert's appends always do.
type largeSlabs struct {
	groups  []largeGroup
	members []uint32
	counts  []rhsCounts
}

// reserve sizes the empty store for a build of the given size, so that the
// arena and the large list are allocated once, and returns the slabs its
// large groups are carved from.
func (s *groupStore) reserve(z storeSize) *largeSlabs {
	s.arena = slices.Grow(s.arena, z.words)
	s.large = make([]*largeGroup, 0, z.larges)
	return &largeSlabs{
		groups:  make([]largeGroup, z.larges),
		members: make([]uint32, z.members),
		counts:  make([]rhsCounts, z.larges*len(s.rhs)),
	}
}

// place stores the group of the ids m at its final size and returns its
// reference and the group: a one-member reference, an arena run, or a large
// group carved from slabs, its value counts filled.
func (s *groupStore) place(m []uint32, slabs *largeSlabs) (uint64, group) {
	switch n := len(m); {
	case n == 1:
		return oneBit | uint64(m[0]), group{m: m}
	case n <= smallMax:
		class := runClass(n)
		off := s.alloc(class)
		s.arena[off] = uint32(n) | class<<8
		copy(s.arena[off+1:], m)
		return uint64(off), group{m: m}
	}
	n, slots := len(m), len(s.rhs)
	lg := &slabs.groups[0]
	lg.members, lg.counts = slabs.members[:n:n], slabs.counts[:slots:slots]
	slabs.groups, slabs.members, slabs.counts = slabs.groups[1:], slabs.members[n:], slabs.counts[slots:]
	copy(lg.members, m)
	for slot := range lg.counts {
		for _, id := range m {
			lg.counts[slot].incr(s.code(id, slot))
		}
	}
	s.large = append(s.large, lg)
	return uint64(len(s.large)-1) | largeBit, group{lg.members, lg}
}

// fill writes the group of the sorted ids [i, end) — into slabs, unless the
// index is a refinement, whose slabs are nil — and adds it to Shape and to
// the counters of the rules in s.hit.
func (ix *GroupIndex) fill(s *BuildScratch, slabs *largeSlabs, i, end int) {
	m := s.ids[i:end]
	g := group{m: m}
	ix.reshape(0, len(m))
	if slabs != nil {
		var k uint64
		if len(ix.lhs) <= 2 {
			k = s.keys[i]
		} else {
			k = ix.key(int(m[0]))
		}
		var ref uint64
		ref, g = ix.place(m, slabs)
		ix.groups[k] = ref
	}
	clear(s.known)
	for _, r := range s.hit {
		rule := &ix.rules[r]
		rule.tuples += len(m)
		rule.groups++
		if len(m) == 1 && rule.want == Wildcard {
			continue // a single tuple agrees with itself
		}
		if !s.known[rule.slot] {
			s.states[rule.slot], s.known[rule.slot] = ix.state(g, rule.slot), true
		}
		if rule.violatedBy(s.states[rule.slot]) {
			rule.bad += len(m)
		}
	}
}

// runClass returns the capacity class of a run of n members, 2 ≤ n ≤
// smallMax: the class Insert leaves such a run in.
func runClass(n int) uint32 {
	class := uint32(0)
	for 2<<class < n {
		class++
	}
	return class
}

// sort fills s.ids with the ids some rule applies to, ordered by their X
// codes, ties in id order, and for |X| ≤ 2 s.keys with each one's packed
// codes, and returns how many it kept. It is a least-significant-digit radix
// sort: one stable counting pass per attribute of X, the last attribute
// first.
func (s *BuildScratch) sort(ix *GroupIndex, t *ruleTable, ids []int32) int {
	s.ids, s.ids2 = slices.Grow(s.ids[:0], len(ids)), slices.Grow(s.ids2[:0], len(ids))
	if len(ix.lhs) > 2 {
		for _, id := range ids {
			if t.any(ix, xcodes{first: int(id)}) {
				s.ids = append(s.ids, uint32(id))
			}
		}
		s.ids2 = s.ids2[:len(s.ids)]
		for p := len(ix.lhs) - 1; p >= 0; p-- {
			s.passColumn(ix.rel.Column(ix.lhs[p]))
		}
		return len(s.ids)
	}
	s.keys, s.keys2 = slices.Grow(s.keys[:0], len(ids)), slices.Grow(s.keys2[:0], len(ids))
	var hiCol, loCol []int32 // the columns of X's first and last attribute
	switch len(ix.lhs) {
	case 2:
		hiCol = ix.rel.Column(ix.lhs[0])
		fallthrough
	case 1:
		loCol = ix.rel.Column(ix.lhs[len(ix.lhs)-1])
	}
	always := len(t.always) > 0
	var lo, hi uint32
	for _, id := range ids {
		var k uint64
		if hiCol != nil {
			k = uint64(uint32(hiCol[id])) << 32
		}
		if loCol != nil {
			k |= uint64(uint32(loCol[id]))
		}
		if !always && !t.any(ix, xcodes{key: k}) {
			continue
		}
		s.keys = append(s.keys, k)
		s.ids = append(s.ids, uint32(id))
		lo, hi = max(lo, uint32(k)), max(hi, uint32(k>>32))
	}
	n := len(s.ids)
	s.keys2, s.ids2 = s.keys2[:n], s.ids2[:n]
	if len(ix.lhs) >= 1 {
		s.passKeys(0, lo)
	}
	if len(ix.lhs) == 2 {
		s.passKeys(32, hi)
	}
	return n
}

// counts returns s.count zeroed for digits in [0, top].
func (s *BuildScratch) counts(top uint32) []int32 {
	s.count = slices.Grow(s.count[:0], int(top)+2)[:top+2]
	clear(s.count)
	return s.count
}

// passKeys stably reorders keys and ids by the 32-bit digit of each key at
// shift, at most top.
func (s *BuildScratch) passKeys(shift int, top uint32) {
	count := s.counts(top)
	for _, k := range s.keys {
		count[uint32(k>>shift)+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	for i, k := range s.keys {
		d := uint32(k >> shift)
		j := count[d]
		count[d]++
		s.keys2[j], s.ids2[j] = k, s.ids[i]
	}
	s.keys, s.keys2 = s.keys2, s.keys
	s.ids, s.ids2 = s.ids2, s.ids
}

// passColumn stably reorders ids by their codes in col.
func (s *BuildScratch) passColumn(col []int32) {
	top := int32(0)
	for _, id := range s.ids {
		top = max(top, col[id])
	}
	count := s.counts(uint32(top))
	for _, id := range s.ids {
		count[col[id]+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	for _, id := range s.ids {
		j := count[col[id]]
		count[col[id]]++
		s.ids2[j] = id
	}
	s.ids, s.ids2 = s.ids2, s.ids
}

// runEnd returns the end of the run of equal X codes that starts at sorted
// position i.
func (s *BuildScratch) runEnd(ix *GroupIndex, i, n int) int {
	end := i + 1
	if len(ix.lhs) <= 2 {
		for end < n && s.keys[end] == s.keys[i] {
			end++
		}
		return end
	}
	first := int(s.ids[i])
	for ; end < n; end++ {
		for _, a := range ix.lhs {
			if ix.rel.Value(int(s.ids[end]), a) != ix.rel.Value(first, a) {
				return end
			}
		}
	}
	return end
}

// xcodes is a group's codes on X, as the rule table reads them: from the
// packed key for |X| ≤ 2, from the first member's row otherwise.
type xcodes struct {
	key   uint64
	first int
}

// code returns the X codes of the group that starts at sorted position i.
func (s *BuildScratch) code(ix *GroupIndex, i int) xcodes {
	if len(ix.lhs) <= 2 {
		return xcodes{key: s.keys[i]}
	}
	return xcodes{first: int(s.ids[i])}
}

// xcodes returns tuple id's codes on X, as the rule table reads them.
func (ix *GroupIndex) xcodes(id int) xcodes {
	x := xcodes{first: id}
	if len(ix.lhs) <= 2 {
		x.key, _ = ix.lookupKey(id)
	}
	return x
}

// at returns the code at X position p.
func (x xcodes) at(ix *GroupIndex, p int) int32 {
	switch {
	case len(ix.lhs) > 2:
		return ix.rel.Value(x.first, ix.lhs[p])
	case len(ix.lhs) == 2 && p == 0:
		return int32(x.key >> 32)
	}
	return int32(uint32(x.key))
}

// ruleTable finds the rules that apply to a group by looking its X codes up,
// where Insert tests every rule's LHS constants against the new tuple. Rules
// with the same constants are chained through next; a chain is held as 1 +
// its first rule, 0 standing for no rule.
type ruleTable struct {
	always []int32          // rules without LHS constants: they apply to every group
	single [][]int32        // single[p][c]: the chain of rules whose one constant is c, at X position p
	pair   map[uint64]int32 // |X| = 2, a constant on both: chains by packed codes
	rest   []int32          // |X| > 2, constants on two or more positions
	next   []int32          // next[r]: the rest of the chain after rule r
}

// reset makes t the table of ix's rules, reusing t's buffers.
func (t *ruleTable) reset(ix *GroupIndex) {
	t.always, t.rest = t.always[:0], t.rest[:0]
	t.next = slices.Grow(t.next[:0], len(ix.rules))[:len(ix.rules)]
	clear(t.pair)
	t.single = slices.Grow(t.single[:0], len(ix.lhs))[:len(ix.lhs)]
	for p := range t.single {
		t.single[p] = t.single[p][:0]
	}
	for r := len(ix.rules) - 1; r >= 0; r-- { // backwards, so chains run in rule order
		var chain *int32
		switch consts := ix.rules[r].consts; {
		case len(consts) == 0:
			t.always = append(t.always, int32(r))
			continue
		case len(consts) == 1:
			p, code := slices.Index(ix.lhs, consts[0].attr), int(consts[0].code)
			if code >= len(t.single[p]) {
				old := len(t.single[p])
				t.single[p] = slices.Grow(t.single[p], code+1-old)[:code+1]
				clear(t.single[p][old:])
			}
			chain = &t.single[p][code]
		case len(ix.lhs) == 2:
			if t.pair == nil {
				t.pair = make(map[uint64]int32)
			}
			k := uint64(uint32(consts[0].code))<<32 | uint64(uint32(consts[1].code))
			t.next[r] = t.pair[k]
			t.pair[k] = int32(r) + 1
			continue
		default:
			t.rest = append(t.rest, int32(r))
			continue
		}
		t.next[r] = *chain
		*chain = int32(r) + 1
	}
}

// first returns the chain of rules whose one constant at X position p is code.
func (t *ruleTable) first(p int, code int32) int32 {
	if int(code) >= len(t.single[p]) {
		return 0
	}
	return t.single[p][code]
}

// any reports whether some rule applies to the group with codes x.
func (t *ruleTable) any(ix *GroupIndex, x xcodes) bool {
	if len(t.always) > 0 {
		return true
	}
	for p := range t.single {
		if t.first(p, x.at(ix, p)) != 0 {
			return true
		}
	}
	if len(t.pair) > 0 && t.pair[x.key] != 0 {
		return true
	}
	for _, r := range t.rest {
		if ix.rules[r].matches(ix.rel, x.first) {
			return true
		}
	}
	return false
}

// lookup appends to hit the rules that apply to the group with codes x.
func (t *ruleTable) lookup(ix *GroupIndex, x xcodes, hit []int32) []int32 {
	hit = append(hit, t.always...)
	for p := range t.single {
		for r := t.first(p, x.at(ix, p)); r != 0; r = t.next[r-1] {
			hit = append(hit, r-1)
		}
	}
	if len(t.pair) > 0 {
		for r := t.pair[x.key]; r != 0; r = t.next[r-1] {
			hit = append(hit, r-1)
		}
	}
	for _, r := range t.rest {
		if ix.rules[r].matches(ix.rel, x.first) {
			hit = append(hit, r)
		}
	}
	return hit
}
