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

// TestMineContextWorkersDeterministic asserts that runs on 2, 4 and 8 workers
// return exactly the same CFD list, in the same order, as a sequential run.
func TestMineContextWorkersDeterministic(t *testing.T) {
	for name, r := range parallelFixtures() {
		for _, k := range []int{1, 2, 4} {
			seq, err := MineContext(context.Background(), r, Options{K: k, Workers: 1})
			if err != nil {
				t.Fatalf("%s k=%d sequential: %v", name, k, err)
			}
			for _, workers := range []int{2, 4, 8} {
				par, err := MineContext(context.Background(), r, Options{K: k, Workers: workers})
				if err != nil {
					t.Fatalf("%s k=%d workers=%d: %v", name, k, workers, err)
				}
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
	seq, err := MineContext(context.Background(), r, Options{K: 2, MaxLHS: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := MineContext(context.Background(), r, Options{K: 2, MaxLHS: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
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
		out, err := MineContext(ctx, fixture.Cust(), Options{K: 2, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if out != nil {
			t.Errorf("workers=%d: expected no CFDs from a cancelled run", workers)
		}
	}
}
