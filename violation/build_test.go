package violation_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// buildAttrs is the schema of TestBuildMatchesInsert: tiny domains, so that
// groups fill up and cross every storage class, and one wide one, W, whose
// classes hold a few tuples each, so that the LHS sets holding it refine a
// root on it.
var buildAttrs = []string{"A", "B", "C", "D", "E", "W"}

// buildRow returns a random row over domains of three values, and of thirty
// on W.
func buildRow(rng *rand.Rand) []string {
	row := make([]string, len(buildAttrs))
	for a := range row {
		row[a] = fmt.Sprint(rng.Intn(3))
	}
	row[len(row)-1] = fmt.Sprint(rng.Intn(30))
	return row
}

// buildRuleSet returns random rules on two LHS sets of two and three
// attributes and on two sets sharing W, each rule carrying LHS constants on
// no, one or two of its attributes and a constant or a wildcard on its RHS.
// The first rule of a set holding W has no LHS constant, so those sets hold
// every live tuple between them twice over: more than a root on W holds.
func buildRuleSet(rng *rand.Rand) *rules.Set {
	var rs []cfd.CFD
	for _, lhs := range [][]string{{"A", "B"}, {"B", "C", "D"}, {"A", "W"}, {"B", "C", "W"}} {
		for k := range 2 + rng.Intn(6) {
			c := cfd.CFD{LHS: lhs, LHSPattern: make([]string, len(lhs)), RHS: "E", RHSPattern: cfd.Wildcard}
			if lhs[0] == "B" && rng.Intn(2) == 0 {
				c.RHS = "A"
			}
			for i := range lhs {
				c.LHSPattern[i] = cfd.Wildcard
			}
			wide := lhs[len(lhs)-1] == "W"
			for _, p := range rng.Perm(len(lhs))[:rng.Intn(3)] {
				if wide && k == 0 {
					break
				}
				c.LHSPattern[p] = fmt.Sprint(rng.Intn(3))
				if lhs[p] == "W" {
					c.LHSPattern[p] = fmt.Sprint(rng.Intn(30))
				}
			}
			if rng.Intn(3) == 0 {
				c.RHSPattern = fmt.Sprint(rng.Intn(3))
			}
			rs = append(rs, c)
		}
	}
	return rules.Of(rs...)
}

// buildOps returns n random ops against an engine whose live ids live holds
// (updated): inserts, and deletes and updates of live tuples.
func buildOps(rng *rand.Rand, live *[]int, next *int, n int) []violation.Op {
	ops := make([]violation.Op, 0, n)
	for range n {
		switch k := rng.Intn(4); {
		case k == 0 && len(*live) > 0:
			i := rng.Intn(len(*live))
			ops = append(ops, violation.Op{Kind: violation.OpDelete, ID: (*live)[i]})
			*live = append((*live)[:i], (*live)[i+1:]...)
		case k == 1 && len(*live) > 0:
			ops = append(ops, violation.Op{Kind: violation.OpUpdate, ID: (*live)[rng.Intn(len(*live))], Values: buildRow(rng)})
		default:
			ops = append(ops, violation.Op{Kind: violation.OpInsert, Values: buildRow(rng)})
			*live = append(*live, *next)
			*next++
		}
	}
	return ops
}

// TestBuildMatchesInsert holds the index build to the write path over random
// relations with holes and random rule sets sharing an LHS set. Three
// engines at two workers apply the same ops: the twin serves the rules from
// the start, so its indexes only ever grow by Insert; the swapped engine
// swaps to the rules after the first ops, building every index over the live
// tuples; the loaded engine serves the rules, applies the first ops, then
// bulk loads more rows, which rebuilds every index over the old tuples and
// the new ones. Both must equal the twin — counters, index shapes, report,
// repairs, suspects and per-tuple violations — after the build and after
// every batch that follows. The twin chose its layout over no tuples, so its
// sets keep groups of their own; the swapped and the loaded engine must have
// read the sets holding W through a root on it.
func TestBuildMatchesInsert(t *testing.T) {
	ctx := context.Background()
	opts := violation.Options{Workers: 2}
	for trial := range 40 {
		rng := rand.New(rand.NewSource(int64(trial)))
		set := buildRuleSet(rng)
		var live []int
		next := 0
		first := buildOps(rng, &live, &next, 20+rng.Intn(120))
		more := make([][]string, rng.Intn(40))
		loadRel, err := cfd.NewRelation(buildAttrs...)
		if err != nil {
			t.Fatal(err)
		}
		loadOps := make([]violation.Op, len(more))
		for i := range more {
			more[i] = buildRow(rng)
			if err := loadRel.Append(more[i]...); err != nil {
				t.Fatal(err)
			}
			loadOps[i] = violation.Op{Kind: violation.OpInsert, Values: more[i]}
			live = append(live, next)
			next++
		}

		engines := make([]*violation.Engine, 3)
		for i, s := range []*rules.Set{set, nil, set} {
			e, err := violation.New(buildAttrs, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.ApplyBatch(first); err != nil {
				t.Fatal(err)
			}
			engines[i] = e
		}
		twin, swapped, loaded := engines[0], engines[1], engines[2]
		if _, err := swapped.SwapRules(ctx, set); err != nil {
			t.Fatal(err)
		}
		if err := loaded.BulkLoad(loadRel); err != nil {
			t.Fatal(err)
		}
		for _, e := range []*violation.Engine{twin, swapped} {
			if len(loadOps) > 0 {
				if _, err := e.ApplyBatch(loadOps); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, e := range []*violation.Engine{swapped, loaded} {
			roots := 0
			for _, st := range e.IndexStats() {
				if st.Root != "" {
					roots++
				}
			}
			if roots < 2 {
				t.Fatalf("trial %d: %d LHS sets refine a root, want the two holding W: %+v", trial, roots, e.IndexStats())
			}
		}
		for step := 0; ; step++ {
			when := fmt.Sprintf("trial %d, step %d", trial, step)
			sameEngineState(t, when, twin, swapped, "swapped")
			sameEngineState(t, when, twin, loaded, "loaded")
			if step == 5 {
				break
			}
			ops := buildOps(rng, &live, &next, 1+rng.Intn(12))
			for _, e := range engines {
				if _, err := e.ApplyBatch(ops); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// sameEngineState fails unless got serves exactly the twin's violation state.
func sameEngineState(t *testing.T, when string, twin, got *violation.Engine, name string) {
	t.Helper()
	a1, a2 := twin.IndexStats(), got.IndexStats()
	for i := range a1 {
		a1[i].Root, a2[i].Root = "", ""
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("%s: %s engine's index stats, roots aside,\n%+v\nthe twin's\n%+v", when, name, a2, a1)
	}
	if a, b := twin.RuleStats(), got.RuleStats(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: %s engine's rule stats\n%+v\nthe twin's\n%+v", when, name, b, a)
	}
	a, b := twin.Report(), got.Report()
	if !reflect.DeepEqual(a.Violations, b.Violations) || !reflect.DeepEqual(a.DirtyTuples, b.DirtyTuples) {
		t.Fatalf("%s: %s engine's report\n%+v\nthe twin's\n%+v", when, name, b, a)
	}
	if a, b := twin.Repairs(), got.Repairs(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: %s engine's repairs\n%+v\nthe twin's\n%+v", when, name, b, a)
	}
	if a, b := twin.Suspects(), got.Suspects(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: %s engine's suspects %v, the twin's %v", when, name, b, a)
	}
	for id := range twin.NextID() {
		a, errA := twin.TupleViolations(id)
		b, errB := got.TupleViolations(id)
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: %s engine's tuple %d violates %v (%v), the twin's %v (%v)", when, name, id, b, errB, a, errA)
		}
	}
}

// TestSwapKeepsRoots swaps an engine at two workers back and forth between
// two random rule sets whose sets holding W refine a root on it, with a batch
// of writes before each swap and readers running throughout. A root depends
// on no rule, so every swap must keep the engine's roots as they are, and
// build only the refinements' counters beside the other sets' indexes, on
// other pool tasks. At the end the engine must equal a twin that served the
// final rules all along.
func TestSwapKeepsRoots(t *testing.T) {
	ctx := context.Background()
	opts := violation.Options{Workers: 2}
	rng := rand.New(rand.NewSource(1))
	a, b := buildRuleSet(rng), buildRuleSet(rng)
	rel, err := cfd.NewRelation(buildAttrs...)
	if err != nil {
		t.Fatal(err)
	}
	var live []int
	for id := range 60 {
		if err := rel.Append(buildRow(rng)...); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
	}
	next := len(live)
	engines := make([]*violation.Engine, 2)
	for i := range engines {
		e, err := violation.New(buildAttrs, a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.BulkLoad(rel); err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	eng, twin := engines[0], engines[1]
	roots := violation.Roots(eng)
	if len(roots) == 0 {
		t.Fatalf("no LHS set refines a root: %+v", eng.IndexStats())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng.Report()
				eng.IndexStats()
				_, _ = eng.TupleViolations(i % eng.NextID())
			}
		}()
	}
	for round := range 10 {
		ops := buildOps(rng, &live, &next, 12)
		for _, e := range engines {
			if _, err := e.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		set := b
		if round%2 == 1 {
			set = a
		}
		if _, err := eng.SwapRules(ctx, set); err != nil {
			t.Fatal(err)
		}
		if got := violation.Roots(eng); !slices.Equal(got, roots) {
			t.Fatalf("round %d: the swap replaced the roots %v with %v", round, roots, got)
		}
	}
	close(stop)
	wg.Wait()
	sameEngineState(t, "after the swaps", twin, eng, "swapped")
}
