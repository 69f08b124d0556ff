package cfdminer

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// emitted runs CFDMiner to completion and returns its rules in emission order.
func emitted(t *testing.T, r *core.Relation, opts Options) []core.CFD {
	t.Helper()
	return fixture.Emitted(t, func(emit func(core.CFD)) error {
		return MineContext(context.Background(), r, opts, emit)
	})
}

// TestMineContextWorkersDeterministic asserts that a four-worker run emits
// exactly the same constant CFDs, in the same order, as a sequential run.
func TestMineContextWorkersDeterministic(t *testing.T) {
	rels := map[string]*core.Relation{
		"cust":     fixture.Cust(),
		"custNoNM": fixture.CustNoNM(),
		"random":   fixture.Random(21, 60, []int{2, 3, 2, 4, 3}),
		"corr":     fixture.RandomCorrelated(17, 200, 6, 5),
	}
	for name, r := range rels {
		for _, k := range []int{1, 2, 4} {
			seq := emitted(t, r, Options{K: k, Workers: 1})
			par := emitted(t, r, Options{K: k, Workers: 4})
			if len(seq) != len(par) {
				t.Errorf("%s k=%d: sequential %d CFDs, parallel %d", name, k, len(seq), len(par))
				continue
			}
			for i := range seq {
				if seq[i].Key() != par[i].Key() {
					t.Errorf("%s k=%d: CFD %d differs: %s vs %s", name, k, i, seq[i].Format(r), par[i].Format(r))
					break
				}
			}
		}
	}
}

// TestMineMaxLHS checks the bound against its definition: the cover under
// MaxLHS n is the unbounded cover restricted to left-hand sides of at most n
// attributes, at every worker count.
func TestMineMaxLHS(t *testing.T) {
	rels := map[string]*core.Relation{
		"cust": fixture.Cust(),
		"corr": fixture.RandomCorrelated(17, 200, 6, 5),
	}
	for name, r := range rels {
		full := emitted(t, r, Options{K: 2, Workers: 1})
		for _, n := range []int{1, 2, 3} {
			var want []core.CFD
			for _, c := range full {
				if c.LHS.Len() <= n {
					want = append(want, c)
				}
			}
			if n == 1 && (len(want) == 0 || len(want) == len(full)) {
				t.Fatalf("%s: MaxLHS=1 keeps %d of %d rules; the bound is not exercised", name, len(want), len(full))
			}
			for _, workers := range []int{1, 4} {
				got := emitted(t, r, Options{K: 2, MaxLHS: n, Workers: workers})
				if !slices.EqualFunc(got, want, func(a, b core.CFD) bool { return a.Key() == b.Key() }) {
					t.Errorf("%s MaxLHS=%d workers=%d: emitted %d CFDs, want the %d of the unbounded run, in its order", name, n, workers, len(got), len(want))
				}
			}
		}
	}
}

// TestMineContextPreCancelled asserts a cancelled context aborts the run with
// ctx.Err() and nothing emitted.
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
