package core

import "slices"

// Root is the partition π_R of every live tuple on one attribute R, which the
// indexes refining it read their groups through (see the "Refinements of a
// root" section of GroupIndex). Its classes are stored as an index stores its
// groups, addressed directly by R's code, and carry no value counts: a root
// depends on no rule, so a rule swap keeps every root the new rules still
// refine. Build, Insert and Delete need exclusive access; the refinements'
// reads may run concurrently.
type Root struct {
	attr int
	// refs holds the reference of each class by R's code (see groupStore),
	// growing with R's dictionary.
	refs []uint64
	groupStore
	// tuples counts the tuples the root holds.
	tuples int
}

// NewRoot returns an empty root over attribute attr of rel's tuples.
func NewRoot(rel *Relation, attr int) *Root {
	return &Root{attr: attr, groupStore: groupStore{rel: rel, arena: make([]uint32, 1)}}
}

// Attr returns the attribute R the root partitions on.
func (rt *Root) Attr() int { return rt.attr }

// class returns the members of tuple id's class, holding a one-member class's
// id in buf.
func (rt *Root) class(id int, buf *[1]uint32) []uint32 {
	code := rt.rel.Value(id, rt.attr)
	if int(code) >= len(rt.refs) {
		return nil
	}
	return rt.resolve(rt.refs[code], buf).m
}

// Insert adds tuple id, whose row the relation must already hold, after every
// refinement of the root has inserted it.
func (rt *Root) Insert(id int) {
	code := int(rt.rel.Value(id, rt.attr))
	if code >= len(rt.refs) {
		rt.refs = append(rt.refs, make([]uint64, code+1-len(rt.refs))...)
	}
	ref := rt.refs[code]
	rt.refs[code], _ = rt.add(ref, rt.resolve(ref, &rt.one), uint32(id))
	rt.tuples++
}

// Delete removes tuple id, whose row the relation must still hold, after
// every refinement of the root has deleted it. Ids not held are ignored.
func (rt *Root) Delete(id int) {
	code := int(rt.rel.Value(id, rt.attr))
	if code >= len(rt.refs) {
		return
	}
	ref := rt.refs[code]
	g := rt.resolve(ref, &rt.one)
	if pos := locate(g, id); pos >= 0 {
		rt.refs[code], _ = rt.remove(ref, g, pos)
		rt.tuples--
	}
}

// Build fills the empty root with the tuples ids lists, ascending, leaving
// the state Inserts in id order leave: the ids are sorted on R by one stable
// counting pass, and each class is written once, at its final size.
func (rt *Root) Build(ids []int32, s *BuildScratch) {
	if rt.tuples != 0 {
		panic("core: build into a non-empty root")
	}
	s.ids = slices.Grow(s.ids[:0], len(ids))
	for _, id := range ids {
		s.ids = append(s.ids, uint32(id))
	}
	attrs := []int{rt.attr}
	s.sort(rt.rel, attrs)
	var size storeSize
	for i := 0; i < len(s.ids); {
		end := s.runEnd(rt.rel, attrs, i)
		size.add(end - i)
		i = end
	}
	col := rt.rel.Column(rt.attr)
	top := 0 // the largest code, the last in sorted order
	if len(s.ids) > 0 {
		top = int(col[s.ids[len(s.ids)-1]])
	}
	rt.refs = make([]uint64, max(rt.rel.Dict(rt.attr).Size(), top+1))
	slabs := rt.reserve(size)
	for i := 0; i < len(s.ids); {
		end := s.runEnd(rt.rel, attrs, i)
		rt.refs[col[s.ids[i]]], _ = rt.place(s.ids[i:end], slabs)
		i = end
	}
	rt.tuples = len(ids)
}

// PlanRoots picks, for each of the given LHS sets — each given by its rules,
// which share it — the attribute whose root it should refine over the live
// tuples ids lists, ascending, or -1 when it should keep its own groups. It
// applies the rule of the "Refinements of a root" section of GroupIndex: a
// set of two or more attributes names its attribute with the most distinct
// live values, ties to the first, when that attribute's classes average at
// most rootMeanClass tuples; a root is kept only when the sets naming it
// would hold more tuples between them than the root holds, every live one.
func PlanRoots(rel *Relation, sets [][]CFD, ids []int32) []int {
	plan := make([]int, len(sets))
	distinct := make(map[int]int)
	count := func(a int) int {
		if d, ok := distinct[a]; ok {
			return d
		}
		// An attribute with too few values to qualify counts as none: it could
		// only be picked for a set it would not qualify for.
		d := 0
		if rootMeanClass*rel.Dict(a).Size() < len(ids) {
			distinct[a] = d
			return d
		}
		seen := make([]bool, rel.Dict(a).Size())
		for _, id := range ids {
			if c := rel.Value(int(id), a); !seen[c] {
				seen[c] = true
				d++
			}
		}
		distinct[a] = d
		return d
	}
	var t ruleTable
	held := make(map[int]int)
	for i, rules := range sets {
		plan[i] = -1
		attrs := rules[0].LHS.Attrs()
		if len(attrs) < 2 || len(ids) == 0 {
			continue
		}
		best := attrs[0]
		for _, a := range attrs[1:] {
			if count(a) > count(best) {
				best = a
			}
		}
		if d := count(best); d > 0 && len(ids) <= rootMeanClass*d {
			plan[i] = best
		}
	}
	// Count what each root's sets hold, a set some rule of which has no LHS
	// constant first: it holds every live tuple without a pass over them.
	for _, everyTuple := range []bool{true, false} {
		for i, a := range plan {
			if a < 0 || held[a] > len(ids) || anyWithoutConstants(sets[i]) != everyTuple {
				continue
			}
			if everyTuple {
				held[a] += len(ids)
				continue
			}
			// The probe of Build's filter, counted: the ids are not kept.
			ix := NewGroupIndex(rel, sets[i])
			t.reset(ix)
			for _, id := range ids {
				if t.any(ix, int(id)) {
					held[a]++
				}
			}
		}
	}
	for i, a := range plan {
		if a >= 0 && held[a] <= len(ids) {
			plan[i] = -1
		}
	}
	return plan
}

// anyWithoutConstants reports whether some rule carries no LHS constant.
func anyWithoutConstants(rules []CFD) bool {
	for _, c := range rules {
		if c.Tp.ConstAttrs(c.LHS).IsEmpty() {
			return true
		}
	}
	return false
}
