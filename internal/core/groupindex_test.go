package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// The TestRuleIndex* tests below predate the shared index: they held the
// one-index-per-rule type GroupIndex replaced to these same oracles, and now
// hold its one-rule use to them. Their names are kept so the tests keep their
// identity in CI history; the multi-rule behaviour is TestGroupIndexSharedX
// and FuzzGroupIndex.

// naiveViolations is an independent oracle for the tuples involved in a
// violation, written directly from the paper's pair semantics: a tuple t
// violates a constant-RHS CFD on its own when it matches the LHS pattern but
// t[A] differs from the constant, and a pair (t1, t2) violates the CFD when
// both match the LHS pattern, agree on the LHS attributes, and disagree on the
// RHS attribute.
func naiveViolations(r *core.Relation, c core.CFD) []int {
	if c.IsTrivial() {
		return nil
	}
	rhsConst := c.Tp[c.RHS]
	attrs := c.LHS.Attrs()
	matches := func(t int) bool {
		for _, a := range attrs {
			if p := c.Tp[a]; p != core.Wildcard && r.Value(t, a) != p {
				return false
			}
		}
		return true
	}
	agree := func(t1, t2 int) bool {
		for _, a := range attrs {
			if r.Value(t1, a) != r.Value(t2, a) {
				return false
			}
		}
		return true
	}
	bad := make(map[int]bool)
	for t1 := 0; t1 < r.Size(); t1++ {
		if !matches(t1) {
			continue
		}
		if rhsConst != core.Wildcard && r.Value(t1, c.RHS) != rhsConst {
			bad[t1] = true
		}
		for t2 := t1 + 1; t2 < r.Size(); t2++ {
			if !matches(t2) || !agree(t1, t2) {
				continue
			}
			if r.Value(t1, c.RHS) != r.Value(t2, c.RHS) {
				bad[t1] = true
				bad[t2] = true
			}
		}
	}
	out := make([]int, 0, len(bad))
	for t := range bad {
		out = append(out, t)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomVindexCFD(rng *rand.Rand, r *core.Relation) core.CFD {
	n := r.Arity()
	rhs := rng.Intn(n)
	lhs := core.EmptyAttrSet
	for a := 0; a < n; a++ {
		if a != rhs && rng.Intn(2) == 0 {
			lhs = lhs.Add(a)
		}
	}
	tp := core.NewPattern(n)
	lhs.ForEach(func(a int) {
		if rng.Intn(2) == 0 {
			tp[a] = int32(rng.Intn(r.DomainSize(a)))
		}
	})
	if rng.Intn(2) == 0 {
		tp[rhs] = int32(rng.Intn(r.DomainSize(rhs)))
	}
	return core.CFD{LHS: lhs, RHS: rhs, Tp: tp}
}

// TestRuleIndexMatchesNaiveOracle checks that batch Violations (the one-rule
// use of GroupIndex) agrees with the brute-force pair-semantics oracle on
// random relations and rules.
func TestRuleIndexMatchesNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		r := fixture.Random(int64(trial), 20+rng.Intn(30), []int{2, 3, 2, 4})
		for i := 0; i < 15; i++ {
			c := randomVindexCFD(rng, r)
			got := core.Violations(r, c)
			want := naiveViolations(r, c)
			if !equalInts(got, want) {
				t.Fatalf("trial %d: Violations = %v, oracle = %v for %s", trial, got, want, c.Format(r))
			}
		}
	}
}

// TestRuleIndexSupportCounters checks that Tuples and Groups — the O(1)
// counters the maintenance layer serves as live support — stay equal to a
// naive recount of matching tuples and distinct LHS-value classes through
// random insert/delete churn.
func TestRuleIndexSupportCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := fixture.Random(int64(200+trial), 30, []int{2, 3, 2, 4})
		c := randomVindexCFD(rng, r)
		attrs := c.LHS.Attrs()
		matches := func(row []int32) bool {
			for _, a := range attrs {
				if p := c.Tp[a]; p != core.Wildcard && row[a] != p {
					return false
				}
			}
			return true
		}
		groupKey := func(row []int32) string {
			k := ""
			for _, a := range attrs {
				k += string(rune(row[a])) + "\x00"
			}
			return k
		}
		ix := core.NewGroupIndex(r, []core.CFD{c})
		rows := make([][]int32, r.Size())
		live := make(map[int]bool)
		check := func(step string) {
			t.Helper()
			wantTuples := 0
			wantGroups := make(map[string]bool)
			for id := range live {
				if matches(rows[id]) {
					wantTuples++
					wantGroups[groupKey(rows[id])] = true
				}
			}
			if ix.Tuples(0) != wantTuples {
				t.Fatalf("trial %d %s: Tuples = %d, naive = %d for %s", trial, step, ix.Tuples(0), wantTuples, c.Format(r))
			}
			if ix.Groups(0) != len(wantGroups) {
				t.Fatalf("trial %d %s: Groups = %d, naive = %d for %s", trial, step, ix.Groups(0), len(wantGroups), c.Format(r))
			}
		}
		for t0 := 0; t0 < r.Size(); t0++ {
			rows[t0] = r.CodedRow(t0)
			ix.Insert(t0, rows[t0], nil)
			live[t0] = true
		}
		check("after load")
		for t0 := 0; t0 < r.Size(); t0++ {
			if rng.Intn(2) == 0 {
				ix.Delete(t0, rows[t0], nil)
				delete(live, t0)
			}
		}
		check("after deletes")
	}
}

// TestRuleIndexIncrementalDelete checks that after deleting tuples from a
// fully-loaded index, the violating set equals a fresh index built over the
// surviving tuples only.
func TestRuleIndexIncrementalDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r := fixture.Random(int64(100+trial), 30, []int{2, 2, 3, 2})
		c := randomVindexCFD(rng, r)
		ix := core.NewGroupIndex(r, []core.CFD{c})
		rows := make([][]int32, r.Size())
		for t0 := 0; t0 < r.Size(); t0++ {
			rows[t0] = r.CodedRow(t0)
			ix.Insert(t0, rows[t0], nil)
		}
		// Delete a random third of the tuples.
		deleted := make(map[int]bool)
		for t0 := 0; t0 < r.Size(); t0++ {
			if rng.Intn(3) == 0 {
				ix.Delete(t0, rows[t0], nil)
				deleted[t0] = true
			}
		}
		ref := core.NewGroupIndex(r, []core.CFD{c})
		for t0 := 0; t0 < r.Size(); t0++ {
			if !deleted[t0] {
				ref.Insert(t0, rows[t0], nil)
			}
		}
		got, want := ix.Violating(nil)[0], ref.Violating(nil)[0]
		if !equalInts(got, want) {
			t.Fatalf("trial %d: after deletes Violating = %v, rebuilt = %v for %s", trial, got, want, c.Format(r))
		}
		if ix.BadTuples(0) != len(got) {
			t.Fatalf("trial %d: BadTuples = %d, |Violating| = %d", trial, ix.BadTuples(0), len(got))
		}
		// Per-tuple lookup agrees with the snapshot.
		inSnap := make(map[int]bool, len(got))
		for _, id := range got {
			inSnap[id] = true
		}
		for t0 := 0; t0 < r.Size(); t0++ {
			is := !deleted[t0] && len(violated(ix, rows[t0])) > 0
			if is != inSnap[t0] {
				t.Fatalf("trial %d: Violated(%d) = %v, snapshot says %v", trial, t0, is, inSnap[t0])
			}
		}
	}
}

// violated collects the rules GroupIndex.Violated reports for an indexed row.
func violated(ix *core.GroupIndex, row []int32) []int {
	var out []int
	ix.Violated(row, func(r int) { out = append(out, r) })
	return out
}

// offTarget is one GroupIndex.Repairs visit.
type offTarget struct {
	id         int
	have, want int32
}

// collectRepairs returns the Repairs visits of the index's one rule, by id.
func collectRepairs(ix *core.GroupIndex, values *core.Dict) []offTarget {
	return collectRuleRepairs(ix, 1, func(int) *core.Dict { return values })[0]
}

// collectRuleRepairs returns the Repairs visits of each of the index's n rules,
// each by id.
func collectRuleRepairs(ix *core.GroupIndex, n int, dict func(int) *core.Dict) [][]offTarget {
	out := make([][]offTarget, n)
	ix.Repairs(dict, func(r, id int, have, want int32) { out[r] = append(out[r], offTarget{id, have, want}) })
	for _, o := range out {
		sort.Slice(o, func(i, j int) bool { return o[i].id < o[j].id })
	}
	return out
}

// naiveRepairs recomputes one rule's Repairs visits from the live rows alone: group
// the matching rows on their LHS codes, recount each group's RHS values, and
// report every member of a violating group that is off the RHS constant, or
// off the most common value (lexicographically smallest on ties).
func naiveRepairs(c core.CFD, values *core.Dict, rows map[int][]int32) []offTarget {
	attrs := c.LHS.Attrs()
	groups := make(map[string][]int)
	for id, row := range rows {
		key, match := "", true
		for _, a := range attrs {
			if p := c.Tp[a]; p != core.Wildcard && row[a] != p {
				match = false
			}
			key += string(rune(row[a])) + "\x00"
		}
		if match {
			groups[key] = append(groups[key], id)
		}
	}
	var out []offTarget
	for _, ids := range groups {
		counts := make(map[int32]int)
		for _, id := range ids {
			counts[rows[id][c.RHS]]++
		}
		want := c.Tp[c.RHS]
		if want == core.Wildcard {
			if len(counts) < 2 {
				continue
			}
			for code, n := range counts {
				if want == core.Wildcard || n > counts[want] || (n == counts[want] && values.Value(code) < values.Value(want)) {
					want = code
				}
			}
		}
		for _, id := range ids {
			if have := rows[id][c.RHS]; have != want {
				out = append(out, offTarget{id, have, want})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func equalOffTargets(a, b []offTarget) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRuleIndexRepairsSpill walks one group through the states its RHS value
// bookkeeping can be in — three and more distinct RHS values, a code that
// spilled while both inline count slots were busy and keeps counting in the
// spill after a slot frees up, a freed slot taken by a new code, ties between
// a slot and the spill — checking Repairs against the recount after every
// step. It runs twice: on a group that starts as a scanned run of members and
// is promoted to counts on the way (at nine members), and on one promoted
// before the walk starts, so every state is reached in the count slots
// themselves. The dictionary's value order is the reverse of its code order,
// so a tie broken on codes instead of values would pick the wrong side.
func TestRuleIndexRepairsSpill(t *testing.T) {
	for _, promoted := range []bool{false, true} {
		t.Run(fmt.Sprintf("promoted=%v", promoted), func(t *testing.T) { repairsSpill(t, promoted) })
	}
}

func repairsSpill(t *testing.T, promoted bool) {
	values := core.NewDict()
	for _, v := range []string{"e", "d", "c", "b", "a"} {
		values.Encode(v)
	}
	// A -> B over (A, B): every row is in the one group A = 0.
	c := core.CFD{LHS: core.EmptyAttrSet.Add(0), RHS: 1, Tp: core.NewPattern(2)}
	rel := core.NewRelation(core.MustSchema("A", "B"))
	ix := core.NewGroupIndex(rel, []core.CFD{c})
	rows := make(map[int][]int32)
	next := 0
	insert := func(code int32) int {
		id := next
		next++
		rows[id] = []int32{0, code}
		core.PutRow(rel, id, rows[id])
		ix.Insert(id, rows[id], nil)
		return id
	}
	remove := func(id int) {
		ix.Delete(id, rows[id], nil)
		rel.Clear(id)
		delete(rows, id)
	}
	check := func(step string, wantTarget int32) {
		t.Helper()
		got, want := collectRepairs(ix, values), naiveRepairs(c, values, rows)
		if !equalOffTargets(got, want) {
			t.Fatalf("%s: Repairs = %v, recount = %v", step, got, want)
		}
		for _, r := range got {
			if r.want != wantTarget {
				t.Fatalf("%s: repair target %d (%q), want %d (%q)", step, r.want, values.Value(r.want), wantTarget, values.Value(wantTarget))
			}
		}
		if len(got) == 0 {
			t.Fatalf("%s: group should be violating", step)
		}
	}
	first := insert(0)
	if promoted {
		// Nine more members promote the group; it stays promoted once they
		// are gone again, because it never empties.
		var fillers []int
		for i := 0; i < 9; i++ {
			fillers = append(fillers, insert(0))
		}
		for _, id := range fillers {
			remove(id)
		}
	}
	if got := collectRepairs(ix, values); len(got) != 0 {
		t.Fatalf("single-value group needs no repair: %v", got)
	}
	insert(1)
	check("two inline codes tie", 1) // "d" < "e"
	s1 := insert(2)                  // spills: both slots busy
	check("three-way tie, one spilled", 2)
	insert(2)
	insert(2)
	check("spilled code is the majority", 2)
	remove(first) // frees slot 1
	insert(2)     // must keep counting in the spill
	check("spilled code counts on after a slot freed", 2)
	insert(3) // takes the freed slot
	insert(3)
	insert(3)
	insert(3)
	check("slot and spill tie at 4", 3) // "b" < "c"
	insert(4)
	check("two codes in the spill", 3)
	remove(s1)
	check("spill count drops below the slot", 3)
	insert(4)
	insert(4)
	insert(4)
	check("two spilled codes and a slot", 4) // a:4 b:4 c:3 -> "a"
}

// TestRuleIndexRepairsMatchesRecount checks Repairs against the recount on
// random rules — half of them over a five-value RHS domain, so groups
// regularly spill — through insert and delete churn.
func TestRuleIndexRepairsMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		r := fixture.Random(int64(300+trial), 60, []int{2, 2, 5, 5})
		c := randomVindexCFD(rng, r)
		ix := core.NewGroupIndex(r, []core.CFD{c})
		rows := make(map[int][]int32)
		for round := 0; round < 4; round++ {
			for id := 0; id < r.Size(); id++ {
				_, live := rows[id]
				switch {
				case !live && rng.Intn(2) == 0:
					rows[id] = r.CodedRow(id)
					ix.Insert(id, rows[id], nil)
				case live && rng.Intn(3) == 0:
					ix.Delete(id, rows[id], nil)
					delete(rows, id)
				}
			}
			got, want := collectRepairs(ix, r.Dict(c.RHS)), naiveRepairs(c, r.Dict(c.RHS), rows)
			if !equalOffTargets(got, want) {
				t.Fatalf("trial %d round %d: Repairs = %v, recount = %v for %s", trial, round, got, want, c.Format(r))
			}
		}
	}
}
