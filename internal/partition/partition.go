// Package partition implements the equivalence-class partitions that underpin
// the levelwise algorithms TANE and CTANE (§4.4 of the paper): tuples matching
// a pattern are grouped by their values on an attribute set, partitions of
// larger attribute sets are obtained as products of smaller ones — one
// operand refined by the attribute the other adds (Refiner) — and the
// validity of candidate (C)FDs reduces to comparing class counts or covered
// tuple counts between a lattice element and its parent.
//
// Partitions are stored in stripped form: singleton equivalence classes are
// dropped, and the total number of matching tuples (Covered) is kept alongside
// so that the full class count can still be derived.
//
// The package also holds the row-side kernel the partitions and the item-set
// miners share: the counting split (Splitter), which groups a tid list by a
// dense per-tuple key without a map, and the tid-list helpers around it.
package partition

import (
	"sort"

	"repro/internal/core"
)

// Partition is a stripped partition: the equivalence classes of size at least
// two, plus the total number of tuples that match the underlying pattern
// (including tuples in singleton classes). The classes are stored flat — one
// tid buffer, class after class, ascending within a class, and one end offset
// per class — so its memory does not depend on its class count and SumSizes
// is the buffer's length. The order of the classes carries no meaning;
// callers compare class counts and covered counts only. A Partition is a
// small value: callers hold it inline, and copies share the buffers.
type Partition struct {
	tids    []int32
	ends    []int32
	Covered int
}

// Stripped returns the number of stored classes: those of at least two tuples.
func (p Partition) Stripped() int { return len(p.ends) }

// Class returns the ascending tuple ids of stored class i.
func (p Partition) Class(i int) []int32 { return window(p.tids, p.ends, i) }

// SumSizes returns the number of tuples appearing in non-singleton classes.
func (p Partition) SumSizes() int { return len(p.tids) }

// NumClasses returns the total number of equivalence classes, counting the
// singleton classes that stripping removed.
func (p Partition) NumClasses() int {
	return len(p.ends) + (p.Covered - len(p.tids))
}

// FromAttribute returns the partition of the lattice element (A, "_"), all
// tuples grouped by their value of attribute attr: root, the partition of the
// empty element — FromItem of every tid — refined by attr.
func FromAttribute(root Partition, attr int, rf *Refiner) Partition {
	p := rf.Refine(root, attr, core.Wildcard)
	p.Covered = root.Covered
	return p
}

// FromItem returns the partition of the lattice element (A, value) from the
// item's ascending tid list, which it keeps: a single equivalence class
// holding those tuples (stripped if singleton). The empty lattice element is
// the same shape — one class holding every tuple.
func FromItem(tids []int32) Partition {
	p := Partition{Covered: len(tids)}
	if len(tids) >= 2 {
		p.tids, p.ends = tids, []int32{int32(len(tids))}
	}
	return p
}

// FromSet builds the partition of an arbitrary lattice element (X, tp) by a
// direct scan: tuples matching the constants of tp on X, grouped by their X
// values. It is used by tests and as a reference implementation; the levelwise
// algorithms build partitions incrementally by refinement instead.
func FromSet(r *core.Relation, X core.AttrSet, tp core.Pattern) Partition {
	attrs := X.Attrs()
	groups := make(map[string][]int32)
	covered := 0
	var key []byte
	for t := 0; t < r.Size(); t++ {
		if !tp.MatchesTuple(r, t, X) {
			continue
		}
		covered++
		key = key[:0]
		for _, a := range attrs {
			v := r.Value(t, a)
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		groups[string(key)] = append(groups[string(key)], int32(t))
	}
	p := Partition{Covered: covered}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if len(groups[k]) >= 2 {
			p.tids = append(p.tids, groups[k]...)
			p.ends = append(p.ends, int32(len(p.tids)))
		}
	}
	return p
}

// Refiner is the scratch state of the partition product (§4.4). The two
// operands of a levelwise join differ in one attribute, so their product is
// one of them refined by the other's last item: its classes split by that
// attribute's column, or cut down to the tuples holding the item's constant.
// A refinement scans the operand it is given and nothing else — the callers
// hand it the smaller one. A Refiner is reused for a whole run and is not
// safe for concurrent use: every worker owns one.
//
// Products are carved from the refiner's arena: blocks that hold the
// products of many refinements, so a product costs no allocation of its own.
// A block lives as long as any product carved from it; a levelwise caller
// starts a new arena per level (NewArena), and a level's products then die
// together with the level.
type Refiner struct {
	r     *core.Relation
	split *Splitter
	out   Groups
	block []int32 // the unused rest of the arena's current block
	next  int     // the size of the arena's next block
}

// Arena blocks double from arenaMinBlock to arenaMaxBlock words, so a small
// level costs little and a large one a few large blocks. A product of more
// than a quarter of the largest block gets a buffer of its own rather than
// abandoning the rest of the current block.
const (
	arenaMinBlock = 1 << 10
	arenaMaxBlock = 1 << 16
)

// NewRefiner returns a refiner for partitions of r.
func NewRefiner(r *core.Relation) *Refiner {
	return &Refiner{r: r, split: NewSplitter(MaxDomain(r)), next: arenaMinBlock}
}

// NewArena starts a new arena: the products refined from now on share no
// block with those refined before, so each group's memory is freed as soon
// as nothing holds that group.
func (rf *Refiner) NewArena() {
	rf.block, rf.next = nil, arenaMinBlock
}

// carve returns n words of the arena.
func (rf *Refiner) carve(n int) []int32 {
	if n > len(rf.block) {
		if n > arenaMaxBlock/4 {
			return make([]int32, n)
		}
		rf.block = make([]int32, max(rf.next, n))
		rf.next = min(2*rf.next, arenaMaxBlock)
	}
	buf := rf.block[:n:n]
	rf.block = rf.block[n:]
	return buf
}

// Refine returns the stripped partition of the lattice element that extends
// p's by the item (attr, val): with the wildcard every class of p is split by
// its tuples' attr values, with a constant it is cut down to the tuples
// holding it; what is left of a class stays if it has two tuples or more.
// Covered cannot be derived from a stripped input and is set to -1; the
// caller must fill it in (CTANE derives it from the support of the element's
// constant pattern, TANE always uses the relation size). The result is built
// in the refiner's reused buffers and copied into its arena at its exact
// size.
func (rf *Refiner) Refine(p Partition, attr int, val int32) Partition {
	col := rf.r.Column(attr)
	g := &rf.out
	g.Reset()
	for i := range p.ends {
		cls := p.Class(i)
		start := len(g.Tids)
		switch {
		case val != core.Wildcard:
			for _, t := range cls {
				if col[t] == val {
					g.Tids = append(g.Tids, t)
				}
			}
		case len(cls) > 2:
			rf.split.Split(col, cls, 2, g)
			continue
		case col[cls[0]] == col[cls[1]]:
			// A class of two stays or goes: one compare, nothing to count.
			g.Tids = append(g.Tids, cls...)
		}
		if len(g.Tids)-start < 2 {
			g.Tids = g.Tids[:start]
		} else {
			g.Ends = append(g.Ends, int32(len(g.Tids)))
		}
	}
	out := Partition{Covered: -1}
	if len(g.Ends) == 0 {
		return out
	}
	buf := rf.carve(len(g.Tids) + len(g.Ends))
	out.tids = buf[:len(g.Tids):len(g.Tids)]
	out.ends = buf[len(g.Tids):]
	copy(out.tids, g.Tids)
	copy(out.ends, g.Ends)
	return out
}

// RefinesRHSVariable reports whether the candidate variable-RHS CFD
// (X\{A} → A, (sp[X\{A}] ‖ _)) holds, given parent = partition of
// (X\{A}, sp[X\{A}]) and elem = partition of (X, sp) with sp[A] = "_":
// the dependency holds iff refining the parent classes by A splits nothing,
// i.e. both partitions have the same number of classes.
func RefinesRHSVariable(parent, elem Partition) bool {
	return parent.NumClasses() == elem.NumClasses()
}

// RefinesRHSConstant reports whether the candidate constant-RHS CFD
// (X\{A} → A, (sp[X\{A}] ‖ c)) holds, given parent = partition of
// (X\{A}, sp[X\{A}]) and elem = partition of (X, sp) with sp[A] = c:
// the dependency holds iff every tuple matching the parent pattern also has
// A = c, i.e. both partitions cover the same number of tuples.
func RefinesRHSConstant(parent, elem Partition) bool {
	return parent.Covered == elem.Covered
}
