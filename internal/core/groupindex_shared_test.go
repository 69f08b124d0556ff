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

// sharedRules returns the rules of the two indexes the tests maintain side by
// side: one over the single attribute {0}, one over {0,1,2} (three attributes,
// so its keys go through pair folding). Each mixes what a tableau mixes —
// different LHS constants, two RHS attributes, constant and variable RHS
// patterns, a duplicate rule, a constant no row ever carries.
func sharedRules() [2][]core.CFD {
	rule := func(lhs []int, rhs int, consts map[int]int32) core.CFD {
		c := core.CFD{LHS: core.NewAttrSet(lhs...), RHS: rhs, Tp: core.NewPattern(len(sharedDomains))}
		for a, code := range consts {
			c.Tp[a] = code
		}
		return c
	}
	narrow, wide := []int{0}, []int{0, 1, 2}
	return [2][]core.CFD{
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

// sharedHarness drives the two shared indexes and the model in lockstep and,
// after every op, holds everything an index reports to a from-scratch
// recount.
type sharedHarness struct {
	t     testing.TB
	rules [2][]core.CFD
	ix    [2]*core.GroupIndex
	rows  map[int][]int32
	live  []int // ids in insertion order
	next  int
	// violating is each rule's recounted violating set as of the last check.
	violating [2][][]int
	dicts     []*core.Dict
}

func newSharedHarness(t testing.TB) *sharedHarness {
	h := &sharedHarness{t: t, rules: sharedRules(), rows: make(map[int][]int32)}
	for x, rs := range h.rules {
		h.ix[x] = core.NewGroupIndex(rs)
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
	h.live = append(h.live, id)
	h.apply(step, func(ix *core.GroupIndex, observe func(r, id int, violating bool)) { ix.Insert(id, row, observe) })
}

func (h *sharedHarness) remove(i int, step string) {
	id := h.live[i]
	h.live = slices.Delete(h.live, i, i+1)
	row := h.rows[id]
	delete(h.rows, id)
	h.apply(step, func(ix *core.GroupIndex, observe func(r, id int, violating bool)) { ix.Delete(id, row, observe) })
}

func (h *sharedHarness) apply(step string, op func(ix *core.GroupIndex, observe func(r, id int, violating bool))) {
	h.t.Helper()
	for x, ix := range h.ix {
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
		h.check(step, x, flips)
	}
}

func (h *sharedHarness) check(step string, x int, flips []map[int]bool) {
	h.t.Helper()
	ix := h.ix[x]
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
		if len(flips[r]) != len(wantFlips) {
			h.t.Fatalf("%s: index %d rule %d: observed flips %v, recount says %v", step, x, r, flips[r], wantFlips)
		}
		for id, v := range wantFlips {
			if got, ok := flips[r][id]; !ok || got != v {
				h.t.Fatalf("%s: index %d rule %d: observed flips %v, recount says %v", step, x, r, flips[r], wantFlips)
			}
		}
		h.violating[x][r] = want
		for _, id := range want {
			violatedBy[id] = append(violatedBy[id], r)
		}
		if want := naiveRepairs(c, h.dicts[c.RHS], h.rows); !equalOffTargets(repairs[r], want) {
			h.t.Fatalf("%s: index %d rule %d: Repairs = %v, recount = %v", step, x, r, repairs[r], want)
		}
	}
	for id, row := range h.rows {
		if got := violated(ix, row); !slices.Equal(got, violatedBy[id]) {
			h.t.Fatalf("%s: index %d: Violated(tuple %d) = %v, recount = %v", step, x, id, got, violatedBy[id])
		}
	}
}

// run replays a fuzz input: one byte per op, the low bit choosing delete (of
// the (b>>1 mod live)-th oldest live tuple) over insert (of row b>>1).
func (h *sharedHarness) run(data []byte) {
	h.t.Helper()
	for i, b := range data {
		if b&1 == 1 && len(h.live) > 0 {
			victim := int(b>>1) % len(h.live)
			h.remove(victim, fmt.Sprintf("op %d (delete #%d)", i, victim))
		} else {
			h.insert(sharedRow(int(b>>1)), fmt.Sprintf("op %d (insert %d)", i, b>>1))
		}
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

// TestGroupIndexSharedX runs the seed sequences of FuzzGroupIndex — several
// rules maintained on one shared grouping, checked per rule after every op —
// so they fail under plain `go test` too, with a readable name.
func TestGroupIndexSharedX(t *testing.T) {
	for i, seed := range sharedSeeds() {
		t.Run(fmt.Sprint("seed=", i), func(t *testing.T) { newSharedHarness(t).run(seed) })
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
			core.NewGroupIndex(bad)
		}()
	}
}

// FuzzGroupIndex turns bytes into a sequence of inserts and deletes over a
// few rules sharing two LHS attribute sets, and after every op checks each
// rule's violating ids, counters, per-tuple lookups, repairs and the flips the
// op reported against a from-scratch recount.
func FuzzGroupIndex(f *testing.F) {
	for _, seed := range sharedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 {
			data = data[:128] // every op pays a full recount
		}
		newSharedHarness(t).run(data)
	})
}
