package core

import (
	"slices"
)

// BuildScratch is the transient memory of GroupIndex.Build and Root.Build:
// the ids being built, sorted by their codes, the sort's second buffer, its
// codes and its counters, the table of the rules' LHS constants and a group's
// rule list. Its buffers grow to the largest build and are reused by the
// next, so a worker that builds several indexes in turn keeps one. The zero
// value is ready to use; a BuildScratch is not safe for concurrent use.
type BuildScratch struct {
	ids, ids2 []uint32
	codes     []int32 // a sort pass's codes, parallel to ids
	count     []int32
	hit       []int32
	states    []slotState
	known     []bool
	table     ruleTable
}

// Build fills the empty index with the tuples ids lists, ascending, whose
// rows the relation holds. It leaves the state Insert leaves when called on
// each id in turn — the same groups holding the same members in id order, the
// same counters — but reaches it group by group, the way §4.4 builds the
// partition π_X: the ids some rule applies to are sorted on their X codes by
// one stable counting pass per attribute of X, so that each group is a run of
// equal codes; the rules that apply to a group are looked up by its first
// member in a table of the rules' LHS constants; and each group is written
// once, at its final size. A first pass over the runs counts what the second
// writes, so the group map, the arena and the large-group list are allocated
// once. A refinement stores no group, so its Build is the counting pass
// alone: it reads the relation, not the root, and may run before or beside
// the root's.
func (ix *GroupIndex) Build(ids []int32, s *BuildScratch) {
	if ix.members != 0 {
		panic("core: build into a non-empty index")
	}
	n := s.filter(ix, ids)
	s.sort(ix.rel, ix.lhs)
	var slabs *largeSlabs
	if ix.root == nil {
		var size storeSize
		for i := 0; i < n; {
			end := s.runEnd(ix.rel, ix.lhs, i)
			size.add(end - i)
			i = end
		}
		ix.groups = make(map[uint64]uint64, size.groups)
		slabs = ix.reserve(size)
	}
	s.states = slices.Grow(s.states[:0], len(ix.rhs))[:len(ix.rhs)]
	s.known = slices.Grow(s.known[:0], len(ix.rhs))[:len(ix.rhs)]
	for i := 0; i < n; {
		end := s.runEnd(ix.rel, ix.lhs, i)
		s.hit = s.table.lookup(ix, int(s.ids[i]), s.hit[:0])
		ix.fill(s, slabs, i, end)
		i = end
	}
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
		var ref uint64
		ref, g = ix.place(m, slabs)
		ix.groups[ix.key(int(m[0]))] = ref
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

// filter makes s.table the table of ix's rules and fills s.ids with the ids
// some rule applies to, in the order ids lists them, and returns how many it
// kept: the tuples a Build over ids holds. PlanRoots counts them the same way.
func (s *BuildScratch) filter(ix *GroupIndex, ids []int32) int {
	t := &s.table
	t.reset(ix)
	s.ids = slices.Grow(s.ids[:0], len(ids))
	always := len(t.always) > 0
	for _, id := range ids {
		if always || t.any(ix, int(id)) {
			s.ids = append(s.ids, uint32(id))
		}
	}
	return len(s.ids)
}

// sort orders s.ids by their codes on attrs, ties in the order they came in.
// It is a least-significant-digit radix sort over rel's columns: one stable
// counting pass per attribute, the last attribute first.
func (s *BuildScratch) sort(rel *Relation, attrs []int) {
	n := len(s.ids)
	s.ids2 = slices.Grow(s.ids2[:0], n)[:n]
	s.codes = slices.Grow(s.codes[:0], n)[:n]
	for p := len(attrs) - 1; p >= 0; p-- {
		s.pass(rel.Column(attrs[p]))
	}
}

// pass stably reorders s.ids by their codes in col. It reads each id's code
// once, into s.codes, and counts and scatters from there: col is read at
// random, s.codes in order.
func (s *BuildScratch) pass(col []int32) {
	top := int32(0)
	for i, id := range s.ids {
		c := col[id]
		s.codes[i] = c
		top = max(top, c)
	}
	s.count = slices.Grow(s.count[:0], int(top)+2)[:top+2]
	count := s.count
	clear(count)
	for _, c := range s.codes {
		count[c+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	for i, c := range s.codes {
		s.ids2[count[c]] = s.ids[i]
		count[c]++
	}
	s.ids, s.ids2 = s.ids2, s.ids
}

// runEnd returns the end of the run of sorted ids, from position i on, whose
// codes on attrs are those of the id at i.
func (s *BuildScratch) runEnd(rel *Relation, attrs []int, i int) int {
	first := int(s.ids[i])
	end := i + 1
	for ; end < len(s.ids); end++ {
		for _, a := range attrs {
			if rel.Value(int(s.ids[end]), a) != rel.Value(first, a) {
				return end
			}
		}
	}
	return end
}

// ruleTable finds the rules that apply to a group by looking up the X codes
// of one of its members, where Insert tests every rule's LHS constants
// against the new tuple. Rules with the same constants are chained through
// next; a chain is held as 1 + its first rule, 0 standing for no rule.
type ruleTable struct {
	always []int32          // rules without LHS constants: they apply to every group
	single [][]int32        // single[p][c]: the chain of rules whose one constant is c, at X position p
	pair   map[uint64]int32 // |X| = 2, a constant on both: chains by lookupKey
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

// any reports whether some rule with LHS constants applies to tuple id; the
// caller tests t.always first.
func (t *ruleTable) any(ix *GroupIndex, id int) bool {
	for p, a := range ix.lhs {
		if len(t.single[p]) > 0 && t.first(p, ix.rel.Value(id, a)) != 0 {
			return true
		}
	}
	if len(t.pair) > 0 {
		if k, _ := ix.lookupKey(id); t.pair[k] != 0 {
			return true
		}
	}
	for _, r := range t.rest {
		if ix.rules[r].matches(ix.rel, id) {
			return true
		}
	}
	return false
}

// lookup appends to hit the rules that apply to tuple id, and so to its
// group.
func (t *ruleTable) lookup(ix *GroupIndex, id int, hit []int32) []int32 {
	hit = append(hit, t.always...)
	for p, a := range ix.lhs {
		for r := t.first(p, ix.rel.Value(id, a)); r != 0; r = t.next[r-1] {
			hit = append(hit, r-1)
		}
	}
	if len(t.pair) > 0 {
		k, _ := ix.lookupKey(id)
		for r := t.pair[k]; r != 0; r = t.next[r-1] {
			hit = append(hit, r-1)
		}
	}
	for _, r := range t.rest {
		if ix.rules[r].matches(ix.rel, id) {
			hit = append(hit, r)
		}
	}
	return hit
}
