package ctane

import (
	"context"
	"errors"
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
