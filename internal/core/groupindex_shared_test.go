package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// The shared-index tests run over a five-attribute schema with tiny domains,
// so that a handful of inserts fills a group: attributes 0..2 are grouped on,
// 3 and 4 are the RHS attributes.
var sharedDomains = []int{3, 2, 2, 3, 3}

// sharedRules returns the rules of the indexes the tests maintain side by
// side: one over the single attribute {0}, one over {0,1,2} (three attributes,
// so its keys go through pair folding), one over {0,1} and one over the empty
// set, whose one group holds every tuple. Each mixes what a tableau mixes —
// LHS constants on no, one or two attributes, two RHS attributes, constant
// and variable RHS patterns, a duplicate rule, a constant no row ever carries.
// The last two, over {1,2} and {0,1,2}, give every rule an LHS constant, so
// that a Build keeps only the tuples its table of constants finds a rule for:
// a constant at either position of the pair and on both, one constant and
// several on the wide set.
func sharedRules() [6][]core.CFD {
	rule := func(lhs []int, rhs int, consts map[int]int32) core.CFD {
		c := core.CFD{LHS: core.NewAttrSet(lhs...), RHS: rhs, Tp: core.NewPattern(len(sharedDomains))}
		for a, code := range consts {
			c.Tp[a] = code
		}
		return c
	}
	narrow, wide, pair, pairBC := []int{0}, []int{0, 1, 2}, []int{0, 1}, []int{1, 2}
	return [6][]core.CFD{
		{
			rule(narrow, 3, nil),
			rule(narrow, 3, map[int]int32{0: 1, 3: 2}),
			rule(narrow, 4, nil),
			rule(narrow, 3, nil), // duplicate of the first
			rule(narrow, 4, map[int]int32{4: 0}),
			rule(narrow, 4, map[int]int32{0: 7}), // matches nothing
		},
		{
			rule(wide, 3, nil),
			rule(wide, 4, map[int]int32{0: 1}),
			rule(wide, 3, map[int]int32{1: 0, 3: 1}),
			rule(wide, 4, map[int]int32{0: 2, 2: 1, 4: 2}),
		},
		{
			rule(pair, 3, nil),
			rule(pair, 4, map[int]int32{1: 1}),
			rule(pair, 3, map[int]int32{0: 2, 1: 0}),
			rule(pair, 4, map[int]int32{0: 0, 4: 1}),
			rule(pair, 3, map[int]int32{0: 1, 1: 1, 3: 0}),
		},
		{
			rule(nil, 3, nil),
			rule(nil, 4, map[int]int32{4: 2}),
		},
		{
			rule(pairBC, 3, map[int]int32{1: 0}),
			rule(pairBC, 4, map[int]int32{2: 1}),
			rule(pairBC, 3, map[int]int32{1: 1, 2: 0}),
			rule(pairBC, 4, map[int]int32{1: 1, 2: 0, 4: 2}), // same constants as the one above
			rule(pairBC, 4, map[int]int32{1: 0, 3: 1}),
		},
		{
			rule(wide, 3, map[int]int32{1: 1}),
			rule(wide, 4, map[int]int32{0: 2, 2: 0}),
			rule(wide, 3, map[int]int32{0: 0, 1: 1, 2: 1, 3: 2}),
		},
	}
}

// naiveState recounts one rule from the live rows alone: the tuples its LHS
// constants select, the distinct groups among them, and — sorted — the
// members of the groups that disagree on the RHS or miss its constant.
func naiveState(c core.CFD, rows map[int][]int32) (violating []int, tuples, groups int) {
	attrs := c.LHS.Attrs()
	members := make(map[int][]int)
	for id, row := range rows {
		key, match := 0, true
		for _, a := range attrs {
			if p := c.Tp[a]; p != core.Wildcard && row[a] != p {
				match = false
			}
			key = key*4 + int(row[a]) // every domain holds under four values
		}
		if match {
			members[key] = append(members[key], id)
			tuples++
		}
	}
	for _, ids := range members {
		bad := false
		for _, id := range ids {
			code := rows[id][c.RHS]
			bad = bad || code != rows[ids[0]][c.RHS] || (c.Tp[c.RHS] != core.Wildcard && code != c.Tp[c.RHS])
		}
		if bad {
			violating = append(violating, ids...)
		}
	}
	slices.Sort(violating)
	return violating, tuples, len(members)
}

// sharedHarness drives the shared indexes and the model in lockstep and,
// after every op, holds everything an index reports to a from-scratch
// recount. In build mode the indexes start out unused: the first ops only
// write the relation, then every index is filled by one Build over the live
// ids, next to a twin filled by Insert in id order, and from there on each op
// goes to both, the twin's Shape held to the built index's. In refine mode
// the indexes whose X holds attribute 0 are refinements of one root on it,
// each with a map-backed twin over the same rules from the start (or filled
// by Insert at the build), held to it in Shape as well.
type sharedHarness struct {
	t     testing.TB
	rules [6][]core.CFD
	ix    [6]*core.GroupIndex
	twin  [6]*core.GroupIndex // build or refine mode: the map-backed, Insert-by-Insert twin of ix
	root  *core.Root          // refine mode: the root on attribute 0
	// indexed is false until the build, in build mode.
	indexed bool
	rel     *core.Relation // holds the live rows, as the indexes require
	rows    map[int][]int32
	live    []int // ids in insertion order
	next    int
	// violating is each rule's recounted violating set as of the last check.
	violating [6][][]int
	dicts     []*core.Dict
}

func newSharedHarness(t testing.TB, refine bool) *sharedHarness {
	h := &sharedHarness{t: t, rules: sharedRules(), rows: make(map[int][]int32), indexed: true}
	h.rel = core.NewRelation(core.MustSchema("A", "B", "C", "D", "E"))
	if refine {
		h.root = core.NewRoot(h.rel, 0)
	}
	for x, rs := range h.rules {
		h.ix[x] = core.NewGroupIndex(h.rel, rs)
		if h.refines(x) {
			h.ix[x] = core.NewRefinement(h.root, rs)
			h.twin[x] = core.NewGroupIndex(h.rel, rs)
		}
		h.violating[x] = make([][]int, len(rs))
	}
	// Value order is the reverse of code order, as in the spill test.
	for range sharedDomains {
		d := core.NewDict()
		for _, v := range []string{"c", "b", "a"} {
			d.Encode(v)
		}
		h.dicts = append(h.dicts, d)
	}
	return h
}

// refines reports whether index x is a refinement of the root.
func (h *sharedHarness) refines(x int) bool {
	return h.root != nil && h.rules[x][0].LHS.Has(0)
}

// sharedRow decodes v (0..107) into a row: the X part in the low digits, the
// two RHS codes above.
func sharedRow(v int) []int32 {
	row := make([]int32, len(sharedDomains))
	for a, d := range sharedDomains {
		row[a] = int32(v % d)
		v /= d
	}
	return row
}

// insert adds a row under the next id; remove deletes the i-th oldest live
// tuple. Both check the flips the indexes observe against the recount.
func (h *sharedHarness) insert(row []int32, step string) {
	id := h.next
	h.next++
	h.rows[id] = row
	core.PutRow(h.rel, id, row)
	h.live = append(h.live, id)
	h.apply(step,
		func(ix *core.GroupIndex, observe func(r, id int, violating bool)) { ix.Insert(id, observe) },
		func() { h.root.Insert(id) })
}

func (h *sharedHarness) remove(i int, step string) {
	id := h.live[i]
	h.live = slices.Delete(h.live, i, i+1)
	delete(h.rows, id)
	h.apply(step,
		func(ix *core.GroupIndex, observe func(r, id int, violating bool)) { ix.Delete(id, observe) },
		func() { h.root.Delete(id) })
	h.rel.Clear(id)
}

// build fills the root, if any, and every index with one Build over the live
// ids, and each twin with an Insert per id in id order, and checks them all.
func (h *sharedHarness) build(step string) {
	h.t.Helper()
	ids := slices.Clone(h.live)
	slices.Sort(ids)
	ids32 := make([]int32, len(ids))
	for i, id := range ids {
		ids32[i] = int32(id)
	}
	var scratch core.BuildScratch // shared by the builds, as a pool worker's is
	if h.root != nil {
		h.root.Build(ids32, &scratch)
	}
	for x, rs := range h.rules {
		h.ix[x].Build(ids32, &scratch)
		h.twin[x] = core.NewGroupIndex(h.rel, rs)
		for _, id := range ids {
			h.twin[x].Insert(id, nil)
		}
		h.check(step, x, nil)
	}
	h.indexed = true
}

// apply runs op on every index and twin, then root on the root, as the
// engine orders them, and then checks every one of them.
func (h *sharedHarness) apply(step string, op func(ix *core.GroupIndex, observe func(r, id int, violating bool)), root func()) {
	h.t.Helper()
	if !h.indexed {
		return
	}
	type applied struct {
		x     int
		ix    *core.GroupIndex
		flips []map[int]bool
	}
	var done []applied
	for x := range h.ix {
		for _, ix := range []*core.GroupIndex{h.ix[x], h.twin[x]} {
			if ix == nil {
				continue
			}
			flips := make([]map[int]bool, len(h.rules[x]))
			op(ix, func(r, id int, violating bool) {
				if flips[r] == nil {
					flips[r] = make(map[int]bool)
				}
				if _, twice := flips[r][id]; twice {
					h.t.Fatalf("%s: index %d rule %d: tuple %d observed twice in one op", step, x, r, id)
				}
				flips[r][id] = violating
			})
			done = append(done, applied{x, ix, flips})
		}
	}
	if h.root != nil {
		root()
	}
	for _, a := range done {
		h.checkIndex(step, a.x, a.ix, a.flips)
	}
	for x := range h.ix {
		if h.twin[x] != nil {
			h.checkShape(step, x)
		}
		h.violating[x] = h.recount(x)
	}
}

// recount returns each rule's violating set of index x, from the live rows.
func (h *sharedHarness) recount(x int) [][]int {
	out := make([][]int, len(h.rules[x]))
	for r, c := range h.rules[x] {
		out[r], _, _ = naiveState(c, h.rows)
	}
	return out
}

// check holds index x (and its twin, in build mode) to the recount, skipping
// the flips when flips is nil, and records the recount.
func (h *sharedHarness) check(step string, x int, flips []map[int]bool) {
	h.t.Helper()
	h.checkIndex(step, x, h.ix[x], flips)
	if h.twin[x] != nil {
		h.checkIndex(step, x, h.twin[x], flips)
		h.checkShape(step, x)
	}
	h.violating[x] = h.recount(x)
}

// checkShape holds index x's Shape and Members to its twin's.
func (h *sharedHarness) checkShape(step string, x int) {
	h.t.Helper()
	o1, r1, l1 := h.ix[x].Shape()
	o2, r2, l2 := h.twin[x].Shape()
	if o1 != o2 || r1 != r2 || l1 != l2 || h.ix[x].Members() != h.twin[x].Members() {
		h.t.Fatalf("%s: index %d: Shape = %d/%d/%d of %d tuples, map-backed Insert-by-Insert twin = %d/%d/%d of %d",
			step, x, o1, r1, l1, h.ix[x].Members(), o2, r2, l2, h.twin[x].Members())
	}
}

// checkIndex holds ix, index x or its twin, to the recount.
func (h *sharedHarness) checkIndex(step string, x int, ix *core.GroupIndex, flips []map[int]bool) {
	h.t.Helper()
	got := ix.Violating(nil)
	repairs := collectRuleRepairs(ix, len(h.rules[x]), func(a int) *core.Dict { return h.dicts[a] })
	violatedBy := make(map[int][]int) // id -> rules, from the recount
	for r, c := range h.rules[x] {
		want, tuples, groups := naiveState(c, h.rows)
		if !slices.Equal(got[r], want) {
			h.t.Fatalf("%s: index %d rule %d: Violating = %v, recount = %v", step, x, r, got[r], want)
		}
		if ix.BadTuples(r) != len(want) || ix.Tuples(r) != tuples || ix.Groups(r) != groups {
			h.t.Fatalf("%s: index %d rule %d: counters {bad %d, tuples %d, groups %d}, recount {%d, %d, %d}",
				step, x, r, ix.BadTuples(r), ix.Tuples(r), ix.Groups(r), len(want), tuples, groups)
		}
		// The observed flips are exactly the symmetric difference between the
		// rule's violating set before and after the op.
		if flips != nil {
			h.checkFlips(step, x, r, flips[r], want)
		}
		for _, id := range want {
			violatedBy[id] = append(violatedBy[id], r)
		}
		if want := naiveRepairs(c, h.dicts[c.RHS], h.rows); !equalOffTargets(repairs[r], want) {
			h.t.Fatalf("%s: index %d rule %d: Repairs = %v, recount = %v", step, x, r, repairs[r], want)
		}
	}
	for id := range h.rows {
		if got := violated(ix, id); !slices.Equal(got, violatedBy[id]) {
			h.t.Fatalf("%s: index %d: Violated(tuple %d) = %v, recount = %v", step, x, id, got, violatedBy[id])
		}
	}
}

// checkFlips holds the flips rule r of index x observed to the symmetric
// difference between its recounted violating sets before and after the op.
func (h *sharedHarness) checkFlips(step string, x, r int, flips map[int]bool, want []int) {
	h.t.Helper()
	wantFlips := make(map[int]bool)
	for _, id := range want {
		wantFlips[id] = true
	}
	for _, id := range h.violating[x][r] {
		if wantFlips[id] {
			delete(wantFlips, id) // stayed violating
		} else {
			wantFlips[id] = false
		}
	}
	if len(flips) != len(wantFlips) {
		h.t.Fatalf("%s: index %d rule %d: observed flips %v, recount says %v", step, x, r, flips, wantFlips)
	}
	for id, v := range wantFlips {
		if got, ok := flips[id]; !ok || got != v {
			h.t.Fatalf("%s: index %d rule %d: observed flips %v, recount says %v", step, x, r, flips, wantFlips)
		}
	}
}

// run replays a fuzz input: one byte per op, the low bit choosing delete (of
// the (b>>1 mod live)-th oldest live tuple) over insert (of row b>>1). With
// build, the first at ops only write the relation, deletes leaving holes;
// then every index is built over the live ids, and the rest replay on the
// built indexes and their twins.
func (h *sharedHarness) run(data []byte, build bool, at int) {
	h.t.Helper()
	h.indexed = !build
	for i, b := range data {
		if build && i == at {
			h.build(fmt.Sprintf("build after op %d", i))
		}
		if b&1 == 1 && len(h.live) > 0 {
			victim := int(b>>1) % len(h.live)
			h.remove(victim, fmt.Sprintf("op %d (delete #%d)", i, victim))
		} else {
			h.insert(sharedRow(int(b>>1)), fmt.Sprintf("op %d (insert %d)", i, b>>1))
		}
	}
	if build && at >= len(data) {
		h.build("build after the last op")
	}
}

// sharedSeeds are op sequences that reach the states a random walk reaches
// late: groups crossing the promotion threshold, emptied groups whose run and
// whose large position are handed out again, and a churned mix.
func sharedSeeds() [][]byte {
	// ins puts a row into X group x (0..11) with the RHS pair rhs (0..8).
	ins := func(x, rhs int) byte { return byte(x+12*rhs) << 1 }
	const delOldest = 1
	var cross, reuse, mixed []byte
	// Twelve members in one group, agreeing at first, then two off values.
	for i := 0; i < 12; i++ {
		cross = append(cross, ins(5, []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 8}[i]))
	}
	// ...and back down to empty, oldest first, so the off values leave last.
	for i := 0; i < 12; i++ {
		cross = append(cross, delOldest)
	}
	// Fill two groups past the threshold, empty both, then refill other keys:
	// the freed runs and large positions are reused by the newcomers.
	for _, x := range []int{1, 7} {
		for i := 0; i < 10; i++ {
			reuse = append(reuse, ins(x, i%9))
		}
	}
	for i := 0; i < 20; i++ {
		reuse = append(reuse, delOldest)
	}
	for _, x := range []int{2, 9, 1} {
		for i := 0; i < 10; i++ {
			reuse = append(reuse, ins(x, (i*5)%9))
		}
	}
	// A deterministic churn over every group, deleting from the middle.
	for i := 0; i < 160; i++ {
		if i%3 == 2 {
			mixed = append(mixed, byte(i*7)<<1|1)
		} else {
			mixed = append(mixed, ins(i*5%12, i*7%9))
		}
	}
	return [][]byte{cross, reuse, mixed}
}

// constSeed fills every X group of sharedRow three times over, with RHS
// pairs that agree in some groups and not in others, deleting from the
// middle as it goes: built halfway, the sets whose every rule carries an LHS
// constant keep some of each group's tuples and drop the rest.
func constSeed() []byte {
	var out []byte
	for i := 0; i < 36; i++ {
		out = append(out, byte(i%12+12*(i%12*(i/12)%9))<<1)
		if i%5 == 4 {
			out = append(out, byte(i*3)<<1|1)
		}
	}
	return out
}

// TestGroupIndexSharedX runs the seed sequences of FuzzGroupIndex — several
// rules maintained on one shared grouping, checked per rule after every op —
// so they fail under plain `go test` too, with a readable name: each as
// inserts and deletes from the start, then built after its first third, its
// second third and its last op.
func TestGroupIndexSharedX(t *testing.T) {
	for i, seed := range sharedSeeds() {
		t.Run(fmt.Sprint("seed=", i), func(t *testing.T) { newSharedHarness(t, false).run(seed, false, 0) })
		for _, at := range []int{len(seed) / 3, 2 * len(seed) / 3, len(seed)} {
			t.Run(fmt.Sprint("seed=", i, "/build=", at), func(t *testing.T) { newSharedHarness(t, false).run(seed, true, at) })
		}
	}
}

// TestGroupIndexRefinesRoot runs the same seed sequences with the indexes
// over sets holding attribute 0 refining one root on it, each held to a
// map-backed twin over the same rules after every op: from the start, and
// with the root and the refinements built after a third of the sequence and
// after its last op.
func TestGroupIndexRefinesRoot(t *testing.T) {
	for i, seed := range sharedSeeds() {
		t.Run(fmt.Sprint("seed=", i), func(t *testing.T) { newSharedHarness(t, true).run(seed, false, 0) })
		for _, at := range []int{len(seed) / 3, len(seed)} {
			t.Run(fmt.Sprint("seed=", i, "/build=", at), func(t *testing.T) { newSharedHarness(t, true).run(seed, true, at) })
		}
	}
}

// TestGroupIndexRejectsMixedLHS: an index groups on one attribute set.
func TestGroupIndexRejectsMixedLHS(t *testing.T) {
	rs := sharedRules()
	for _, bad := range [][]core.CFD{nil, {rs[0][0], rs[1][0]}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewGroupIndex(%v) must panic", bad)
				}
			}()
			core.NewGroupIndex(nil, bad)
		}()
	}
}

// FuzzGroupIndex turns bytes into a sequence of inserts and deletes over a
// few rules sharing six LHS attribute sets (of zero to three attributes),
// and after every op checks each rule's violating ids, counters, per-tuple
// lookups, repairs and the flips the op reported against a from-scratch
// recount. With build, the first at ops write only the relation, leaving
// holes where they delete; every index is then filled by Build and held,
// from there on after every op, to a twin filled by Insert in id order. With
// refine, the indexes over sets holding attribute 0 are refinements of one
// root on it, held to map-backed twins over the same rules in both modes.
func FuzzGroupIndex(f *testing.F) {
	for _, seed := range sharedSeeds() {
		f.Add(seed, false, uint8(0), false)
	}
	for _, seed := range sharedSeeds() {
		f.Add(seed, true, uint8(len(seed)/2), false)
	}
	for _, seed := range sharedSeeds() {
		f.Add(seed, false, uint8(0), true)
		f.Add(seed, true, uint8(len(seed)/2), true)
	}
	consts := constSeed()
	f.Add(consts, true, uint8(len(consts)/2), false)
	f.Add(consts, true, uint8(len(consts)/2), true)
	f.Fuzz(func(t *testing.T, data []byte, build bool, at uint8, refine bool) {
		if len(data) > 128 {
			data = data[:128] // every op pays a full recount
		}
		newSharedHarness(t, refine).run(data, build, int(at))
	})
}

// TestBuildRejectsFilledIndex: Build fills an empty index only.
func TestBuildRejectsFilledIndex(t *testing.T) {
	h := newSharedHarness(t, false)
	h.insert(sharedRow(0), "insert")
	defer func() {
		if recover() == nil {
			t.Fatal("Build into an index holding a tuple must panic")
		}
	}()
	h.ix[0].Build([]int32{0}, new(core.BuildScratch))
}
