package violation_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// A group keeps no codes of its own: the index reads every member's row from
// the engine's relation, which ApplyBatch writes op by op, each op's row just
// after that op has updated every index. The batches below make a later op
// of the same batch read a member an earlier op wrote, or an earlier op read
// a member a later op rewrites. Groups are keyed on A; A → B is variable, and
// the two constant rules can flag a group of one.
var orderRules = []cfd.CFD{
	cfd.NewFD([]string{"A"}, "B"),
	{LHS: []string{"A"}, RHS: "C", LHSPattern: []string{"_"}, RHSPattern: "c1"},
	{LHS: []string{"A", "B"}, RHS: "C", LHSPattern: []string{"_", "b1"}, RHSPattern: "c1"},
}

// orderStart holds one tuple per A value: every group has one member.
var orderStart = [][]string{
	{"a1", "b1", "c1"}, // 0: satisfies every rule
	{"a2", "b1", "c2"}, // 1: misses both constants
	{"a3", "b2", "c1"}, // 2
}

// TestBatchReadsMembersAsOfItsOps: each case's batches equal the same ops
// applied one at a time and a fresh BulkLoad of the final rows, at every
// worker count — counters, violating sets and repairs, and per batch the
// delta, which must equal the per-op commits' merged delta and turn the
// report before the batch into the report after it.
func TestBatchReadsMembersAsOfItsOps(t *testing.T) {
	ins := func(v ...string) violation.Op { return violation.Op{Kind: violation.OpInsert, Values: v} }
	upd := func(id int, v ...string) violation.Op {
		return violation.Op{Kind: violation.OpUpdate, ID: id, Values: v}
	}
	del := func(id int) violation.Op { return violation.Op{Kind: violation.OpDelete, ID: id} }
	at := func(id int, v ...string) violation.Op {
		return violation.Op{Kind: violation.OpInsert, Values: v, At: &id}
	}
	cases := []struct {
		name    string
		batches [][]violation.Op
	}{
		{"join then update the first member", [][]violation.Op{
			{ins("a1", "b2", "c1"), upd(0, "a1", "b2", "c2")},
			{del(0)},
		}},
		{"update the first member then join", [][]violation.Op{
			{upd(0, "a1", "b2", "c2"), ins("a1", "b2", "c1")},
			{del(0)},
		}},
		{"update away then join the emptied key", [][]violation.Op{
			{upd(1, "a4", "b1", "c1"), ins("a2", "b1", "c1"), ins("a4", "b3", "c1")},
			{del(1), del(4)},
		}},
		{"join, demote and rejoin in one batch", [][]violation.Op{
			{ins("a3", "b2", "c1"), del(2), upd(3, "a3", "b1", "c2"), ins("a3", "b1", "c1")},
			{del(3)},
		}},
		{"pinned insert joins a group", [][]violation.Op{
			{at(9, "a2", "b1", "c1"), upd(1, "a2", "b3", "c1")},
			{del(1)},
		}},
		{"group of a pinned insert is joined", [][]violation.Op{
			{at(9, "a5", "b1", "c2"), ins("a5", "b1", "c1"), upd(9, "a5", "b2", "c1")},
			{del(9)},
		}},
		{"write an id thrice and re-pin another", [][]violation.Op{
			{ins("a1", "b1", "c1"), at(9, "a1", "b1", "c1"), upd(9, "a1", "b2", "c1"), del(9),
				del(0), at(0, "a1", "b1", "c2")},
			{upd(0, "a1", "b1", "c1"), del(3)},
		}},
		{"rewrite a member then grow its group past eight", [][]violation.Op{
			{upd(0, "a1", "b2", "c1"), ins("a1", "b1", "c1"), ins("a1", "b1", "c1"), ins("a1", "b1", "c1"),
				ins("a1", "b1", "c1"), ins("a1", "b1", "c2"), ins("a1", "b1", "c1"), ins("a1", "b1", "c1"),
				ins("a1", "b1", "c1"), ins("a1", "b1", "c1")},
			{del(0), del(8)},
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				batched := orderEngine(t, workers)
				perOp := orderEngine(t, 1)
				for i, ops := range tc.batches {
					before, since, sinceOp := batched.Report(), batched.Epoch(), perOp.Epoch()
					if _, err := batched.ApplyBatch(ops); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					for _, op := range ops {
						if _, err := perOp.ApplyBatch([]violation.Op{op}); err != nil {
							t.Fatalf("batch %d per op: %v", i, err)
						}
					}
					assertSameState(t, batched, perOp)
					d, err := batched.Changes(since)
					if err != nil {
						t.Fatal(err)
					}
					dOp, err := perOp.Changes(sinceOp)
					if err != nil {
						t.Fatal(err)
					}
					if !sameDeltaBody(d, dOp) {
						t.Fatalf("batch %d: delta %+v, per-op merged delta %+v", i, d, dOp)
					}
					if got, want := d.Apply(before, batched.Rules()), batched.Report(); !reflect.DeepEqual(got.Violations, want.Violations) || !reflect.DeepEqual(got.DirtyTuples, want.DirtyTuples) {
						t.Fatalf("batch %d: the delta patches the report to %v, the engine reports %v", i, got.Violations, want.Violations)
					}
					if !reflect.DeepEqual(batched.RuleStats(), perOp.RuleStats()) || !reflect.DeepEqual(batched.Repairs(), perOp.Repairs()) {
						t.Fatalf("batch %d: rule stats or repairs differ from the per-op engine", i)
					}
					assertMatchesBulkLoad(t, batched)
				}
			})
		}
	}
}

// orderEngine bulk loads orderStart under orderRules.
func orderEngine(t *testing.T, workers int) *violation.Engine {
	t.Helper()
	rel, err := cfd.FromRows([]string{"A", "B", "C"}, orderStart)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := violation.New(rel.Attributes(), rules.Of(orderRules...), violation.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	return eng
}

// sameDeltaBody compares what two deltas change, whatever their epochs.
func sameDeltaBody(a, b *violation.Delta) bool {
	return reflect.DeepEqual(a.Added, b.Added) && reflect.DeepEqual(a.Removed, b.Removed) &&
		reflect.DeepEqual(a.DirtyAdded, b.DirtyAdded) && reflect.DeepEqual(a.DirtyRemoved, b.DirtyRemoved)
}

// assertMatchesBulkLoad holds the engine to a fresh engine bulk loaded with
// its live rows, whose ids are the positions of those rows: counters,
// violating sets and repairs must agree once the ids are mapped back.
func assertMatchesBulkLoad(t *testing.T, eng *violation.Engine) {
	t.Helper()
	rel, ids, err := eng.Relation()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := violation.New(rel.Attributes(), eng.RuleSet(), violation.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.BulkLoad(rel); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.RuleStats(), fresh.RuleStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rule stats %+v, a fresh bulk load has %+v", got, want)
	}
	rep := fresh.Report()
	var want []violation.Violation
	for _, v := range rep.Violations {
		want = append(want, violation.Violation{Rule: v.Rule, Tuples: mapIDs(v.Tuples, ids)})
	}
	if got := eng.Report(); !reflect.DeepEqual(got.Violations, want) || !reflect.DeepEqual(got.DirtyTuples, mapIDs(rep.DirtyTuples, ids)) {
		t.Fatalf("violations %v, a fresh bulk load has %v", got.Violations, want)
	}
	wantRepairs := fresh.Repairs()
	for i := range wantRepairs {
		wantRepairs[i].Tuple = ids[wantRepairs[i].Tuple]
	}
	if got := eng.Repairs(); !reflect.DeepEqual(got, wantRepairs) {
		t.Fatalf("repairs %+v, a fresh bulk load has %+v", got, wantRepairs)
	}
}

// mapIDs maps positions of a hole-free copy to the engine ids they came
// from; ids ascend, so the result does too.
func mapIDs(pos, ids []int) []int {
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = ids[p]
	}
	return out
}
