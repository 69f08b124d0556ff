package discovery_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
)

// TestDiscoverContextPreCancelled asserts that every algorithm returns
// promptly with ctx.Err() when handed an already-cancelled context.
func TestDiscoverContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := cust()
	for _, alg := range discovery.Algorithms() {
		start := time.Now()
		set, err := discovery.NewEngine(alg, r, discovery.WithSupport(2)).Run(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", alg, err)
		}
		if set != nil {
			t.Errorf("%s: expected nil rule set from a cancelled run", alg)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("%s: cancelled run took %s", alg, elapsed)
		}
	}
}

// TestDiscoverContextCancelMidRun cancels long discovery runs shortly after
// they start and checks they abort with the context's error rather than
// running to completion. Support 2 makes each algorithm's dominant phase
// (lattice levels for CTANE, item-set mining for CFDMiner and FastCFD) take
// orders of magnitude longer than the deadline, so a completed run
// (err == nil) means cancellation was not observed there. FastFD spends
// nearly all of its 25 ms on this input in its closed-item-set prelude, so
// its deadline is the one that falls inside it.
func TestDiscoverContextCancelMidRun(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 8000, Arity: 9, CF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for alg, deadline := range map[discovery.Algorithm]time.Duration{
		discovery.AlgCFDMiner: 20 * time.Millisecond,
		discovery.AlgCTANE:    20 * time.Millisecond,
		discovery.AlgFastCFD:  20 * time.Millisecond,
		discovery.AlgFastFD:   2 * time.Millisecond,
	} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, err = discovery.NewEngine(alg, rel, discovery.WithSupport(2)).Run(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", alg, err)
		}
	}
}

// TestDiscoverWorkersDeterministic asserts, through the public API, that 2, 4
// and 8 workers produce exactly the same CFD list, order included, as one
// worker for every parallel algorithm on the fixture relations.
func TestDiscoverWorkersDeterministic(t *testing.T) {
	gen, err := dataset.Tax(dataset.TaxConfig{Size: 400, Arity: 7, CF: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rels := map[string]*relAndSupport{
		"cust": {cust(), 2},
		"tax":  {gen, 4},
	}
	algs := []discovery.Algorithm{
		discovery.AlgCFDMiner, discovery.AlgCTANE, discovery.AlgFastCFD, discovery.AlgNaiveFast,
	}
	for name, rs := range rels {
		for _, alg := range algs {
			seq := mine(t, alg, rs.rel, discovery.WithSupport(rs.k), discovery.WithWorkers(1)).CFDs()
			for _, workers := range []int{2, 4, 8} {
				par := mine(t, alg, rs.rel, discovery.WithSupport(rs.k), discovery.WithWorkers(workers)).CFDs()
				if len(seq) != len(par) {
					t.Errorf("%s/%s: sequential %d CFDs, %d workers %d", name, alg, len(seq), workers, len(par))
					continue
				}
				for i := range seq {
					if seq[i].Normalize().String() != par[i].Normalize().String() {
						t.Errorf("%s/%s: CFD %d differs between 1 and %d workers", name, alg, i, workers)
						break
					}
				}
			}
		}
	}
}

type relAndSupport struct {
	rel *cfd.Relation
	k   int
}
