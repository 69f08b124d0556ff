// Package partition implements the equivalence-class partitions that underpin
// the levelwise algorithms TANE and CTANE (§4.4 of the paper): tuples matching
// a pattern are grouped by their values on an attribute set, partitions of
// larger attribute sets are obtained as products of smaller ones, and the
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
// per class — so a partition is two allocations whatever its class count and
// SumSizes is the buffer's length. The order of the classes carries no
// meaning; callers compare class counts and covered counts only.
type Partition struct {
	tids    []int32
	ends    []int32
	Covered int
}

// Stripped returns the number of stored classes: those of at least two tuples.
func (p *Partition) Stripped() int { return len(p.ends) }

// Class returns the ascending tuple ids of stored class i.
func (p *Partition) Class(i int) []int32 { return window(p.tids, p.ends, i) }

// SumSizes returns the number of tuples appearing in non-singleton classes.
func (p *Partition) SumSizes() int { return len(p.tids) }

// NumClasses returns the total number of equivalence classes, counting the
// singleton classes that stripping removed.
func (p *Partition) NumClasses() int {
	return len(p.ends) + (p.Covered - len(p.tids))
}

// FromAttribute returns the partition of the lattice element (A, "_"): all
// tuples grouped by their value of attribute attr.
func FromAttribute(r *core.Relation, attr int) *Partition {
	var g Groups
	NewSplitter(r.DomainSize(attr)).Split(r.Column(attr), AllTids(r.Size()), 2, &g)
	return &Partition{tids: g.Tids, ends: g.Ends, Covered: r.Size()}
}

// FromItem returns the partition of the lattice element (A, value) from the
// item's ascending tid list, which it keeps: a single equivalence class
// holding those tuples (stripped if singleton). The empty lattice element is
// the same shape — one class holding every tuple.
func FromItem(tids []int32) *Partition {
	p := &Partition{Covered: len(tids)}
	if len(tids) >= 2 {
		p.tids, p.ends = tids, []int32{int32(len(tids))}
	}
	return p
}

// FromSet builds the partition of an arbitrary lattice element (X, tp) by a
// direct scan: tuples matching the constants of tp on X, grouped by their X
// values. It is used by tests and as a reference implementation; the levelwise
// algorithms build partitions incrementally with products instead.
func FromSet(r *core.Relation, X core.AttrSet, tp core.Pattern) *Partition {
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
	p := &Partition{Covered: covered}
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

// Probe is the scratch state of TANE's linear-time partition product: a pair
// of tuples shares a class in the product iff it shares a class in both
// operands. Load writes the left operand into a probe table — one class id
// per tuple — and Product splits every class of a right operand by those
// ids, so the table is filled once however many right operands are
// multiplied against it (the levelwise algorithms join one left parent with
// all of its siblings). A Probe is reused for a whole run and is not safe for
// concurrent use: every worker owns one.
type Probe struct {
	// class[t] is one plus the index of t's class in the loaded operand, zero
	// if t is stripped from it; all zero while nothing is loaded.
	class []int32
	split *Splitter
	out   Groups
	left  *Partition
}

// NewProbe returns a probe for partitions of a relation of n tuples.
func NewProbe(n int) *Probe {
	// Stored classes hold at least two tuples, so there are at most n/2.
	return &Probe{class: make([]int32, n), split: NewSplitter(n / 2)}
}

// Load fills the probe table from x. Nothing may be loaded already.
func (pr *Probe) Load(x *Partition) {
	start := int32(0)
	for i, end := range x.ends {
		for _, t := range x.tids[start:end] {
			pr.class[t] = int32(i + 1)
		}
		start = end
	}
	pr.left = x
}

// Unload restores the probe table to zeroes.
func (pr *Probe) Unload() {
	for _, t := range pr.left.tids {
		pr.class[t] = 0
	}
	pr.left = nil
}

// Product returns the stripped partition of the union of the loaded lattice
// element and y. Covered cannot be derived from stripped inputs and is set to
// -1; the caller must fill it in (CTANE derives it from the support of the
// element's constant pattern, TANE always uses the relation size). The
// product is built in the probe's reused buffers and copied out once at its
// exact size.
func (pr *Probe) Product(y *Partition) *Partition {
	out := &Partition{Covered: -1}
	if len(pr.left.ends) == 0 {
		return out
	}
	g := &pr.out
	g.Reset()
	for i := range y.ends {
		pr.split.split(pr.class, y.Class(i), 1, 2, g)
	}
	if len(g.Ends) == 0 {
		return out
	}
	buf := make([]int32, len(g.Tids)+len(g.Ends))
	out.tids = buf[:len(g.Tids):len(g.Tids)]
	out.ends = buf[len(g.Tids):]
	copy(out.tids, g.Tids)
	copy(out.ends, g.Ends)
	return out
}

// ProductWith is the one-off product of a and b: load a, multiply, unload.
func ProductWith(a, b *Partition, pr *Probe) *Partition {
	pr.Load(a)
	defer pr.Unload()
	return pr.Product(b)
}

// RefinesRHSVariable reports whether the candidate variable-RHS CFD
// (X\{A} → A, (sp[X\{A}] ‖ _)) holds, given parent = partition of
// (X\{A}, sp[X\{A}]) and elem = partition of (X, sp) with sp[A] = "_":
// the dependency holds iff refining the parent classes by A splits nothing,
// i.e. both partitions have the same number of classes.
func RefinesRHSVariable(parent, elem *Partition) bool {
	return parent.NumClasses() == elem.NumClasses()
}

// RefinesRHSConstant reports whether the candidate constant-RHS CFD
// (X\{A} → A, (sp[X\{A}] ‖ c)) holds, given parent = partition of
// (X\{A}, sp[X\{A}]) and elem = partition of (X, sp) with sp[A] = c:
// the dependency holds iff every tuple matching the parent pattern also has
// A = c, i.e. both partitions cover the same number of tuples.
func RefinesRHSConstant(parent, elem *Partition) bool {
	return parent.Covered == elem.Covered
}
