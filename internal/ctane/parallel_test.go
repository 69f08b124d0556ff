package ctane

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// parallelFixtures are the relations the worker-count determinism tests run
// on: the paper's fixtures plus pseudo-random relations of varying shape.
func parallelFixtures() map[string]*core.Relation {
	return map[string]*core.Relation{
		"cust":     fixture.Cust(),
		"custNoNM": fixture.CustNoNM(),
		"random":   fixture.Random(21, 60, []int{2, 3, 2, 4, 3}),
		"corr":     fixture.RandomCorrelated(17, 200, 6, 5),
	}
}

// emitted runs CTANE to completion and returns its rules in emission order.
func emitted(t *testing.T, r *core.Relation, opts Options) []core.CFD {
	t.Helper()
	return fixture.Emitted(t, func(emit func(core.CFD)) error {
		return MineContext(context.Background(), r, opts, emit)
	})
}

// TestMineContextWorkersDeterministic asserts that runs on 2, 4 and 8 workers
// emit exactly the same CFDs, in the same order, as a sequential run — level
// after level (LHS sizes never decrease along the sequence), canonically
// ordered and free of duplicates within a level.
func TestMineContextWorkersDeterministic(t *testing.T) {
	for name, r := range parallelFixtures() {
		for _, k := range []int{1, 2, 4} {
			seq := emitted(t, r, Options{K: k, Workers: 1})
			for i := 1; i < len(seq); i++ {
				a, b := seq[i-1], seq[i]
				if a.LHS.Len() > b.LHS.Len() || (a.LHS.Len() == b.LHS.Len() && a.Key() >= b.Key()) {
					t.Fatalf("%s k=%d: rule %d out of emission order", name, k, i)
				}
			}
			for _, workers := range []int{2, 4, 8} {
				par := emitted(t, r, Options{K: k, Workers: workers})
				if len(seq) != len(par) {
					t.Errorf("%s k=%d: sequential %d CFDs, %d workers %d", name, k, len(seq), workers, len(par))
					diffReport(t, r, name, par, seq)
					continue
				}
				for i := range seq {
					if seq[i].Key() != par[i].Key() {
						t.Errorf("%s k=%d workers=%d: CFD %d differs: %s vs %s", name, k, workers, i, seq[i].Format(r), par[i].Format(r))
						break
					}
				}
			}
		}
	}
}

// TestDiscoverWorkersIdentical walks the lattice level by level on one and on
// three workers and checks, at every level, that discover finds the same
// CFDs and keeps the same survivors with the same patterns and C+ sets: a run
// of siblings' Step 2.c reaches no element of another run, whichever worker
// takes it.
func TestDiscoverWorkersIdentical(t *testing.T) {
	ctx := context.Background()
	for name, r := range parallelFixtures() {
		for _, k := range []int{1, 2, 4} {
			seq, par := newLattice(r, k, 1, false), newLattice(r, k, 3, false)
			for depth := 1; len(seq.level) > 0; depth++ {
				at := fmt.Sprintf("%s k=%d level %d", name, k, depth)
				seqOut, err := seq.discover(ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				parOut, err := par.discover(ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				core.SortCFDs(seqOut)
				core.SortCFDs(parOut)
				if !slices.EqualFunc(seqOut, parOut, func(a, b core.CFD) bool { return a.Key() == b.Key() }) {
					t.Fatalf("%s: 1 worker finds %d CFDs, 3 workers %d, or they differ", at, len(seqOut), len(parOut))
				}
				if len(seq.level) != len(par.level) {
					t.Fatalf("%s: 1 worker keeps %d elements, 3 workers %d", at, len(seq.level), len(par.level))
				}
				for i, e := range seq.level {
					f := par.level[i]
					if e.attrs != f.attrs || !slices.Equal(e.tp(), f.tp()) {
						t.Fatalf("%s: survivor %d is %v %v on 1 worker, %v %v on 3", at, i, e.attrs, e.tp(), f.attrs, f.tp())
					}
					if e.cplus.removedAttrs != f.cplus.removedAttrs || !slices.Equal(e.cplus.removedVals, f.cplus.removedVals) {
						t.Fatalf("%s: %v %v: C+ removes %v %v on 1 worker, %v %v on 3", at, e.attrs, e.tp(),
							e.cplus.removedAttrs, e.cplus.removedVals, f.cplus.removedAttrs, f.cplus.removedVals)
					}
				}
				if err := seq.advance(ctx); err != nil {
					t.Fatal(err)
				}
				if err := par.advance(ctx); err != nil {
					t.Fatal(err)
				}
			}
			if len(par.level) != 0 {
				t.Errorf("%s k=%d: 3 workers generate %d elements past the last level", name, k, len(par.level))
			}
		}
	}
}

// TestMineContextWorkersDeterministicMaxLHS repeats the determinism check with
// a bounded left-hand side, which exercises the truncated-lattice paths.
func TestMineContextWorkersDeterministicMaxLHS(t *testing.T) {
	r := fixture.Cust()
	seq := emitted(t, r, Options{K: 2, MaxLHS: 2, Workers: 1})
	par := emitted(t, r, Options{K: 2, MaxLHS: 2, Workers: 4})
	if len(seq) != len(par) {
		t.Fatalf("sequential %d CFDs, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Key() != par[i].Key() {
			t.Errorf("CFD %d differs between worker counts", i)
		}
	}
}

// TestMineContextPreCancelled asserts a cancelled context aborts the run with
// ctx.Err() before any lattice level is processed.
func TestMineContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		emits := 0
		err := MineContext(ctx, fixture.Cust(), Options{K: 2, Workers: workers}, func(core.CFD) { emits++ })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if emits != 0 {
			t.Errorf("workers=%d: a cancelled run emitted %d CFDs", workers, emits)
		}
	}
}
