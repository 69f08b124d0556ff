package fastcfd

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/fixture"
	"repro/internal/itemset"
)

// TestMineContextPreCancelled asserts a cancelled context aborts FastCFD and
// NaiveFast with ctx.Err() for both sequential and parallel worker counts.
func TestMineContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := fixture.Cust()
	variants := map[string]Options{
		"fastcfd-seq":   {K: 2, UseCFDMiner: true, Workers: 1},
		"fastcfd-par":   {K: 2, UseCFDMiner: true, Workers: 4},
		"naivefast-seq": {K: 2, Computer: diffset.NewNaive(r), Workers: 1},
	}
	for name, opts := range variants {
		emits := 0
		err := MineContext(ctx, r, opts, func(core.CFD) { emits++ })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if emits != 0 {
			t.Errorf("%s: a cancelled run emitted %d CFDs", name, emits)
		}
	}
}

// TestMineContextCancelledMidPrelude cancels a FastCFD run while its prelude —
// the closed-item-set pass, overlapped with the free-set pass when there is
// more than one worker — is under way, and asserts that the run returns
// ctx.Err() after a bounded number of further cancellation checks instead of
// waiting out the pass, and that the goroutine preparing the closed sets does
// not outlive the call.
func TestMineContextCancelledMidPrelude(t *testing.T) {
	// 18,459 2-frequent closed sets: the closed-set pass alone makes that
	// many checks, so check 300 falls inside the prelude for every worker
	// count.
	r := fixture.Random(11, 3000, []int{4, 6, 9, 12, 20, 30})
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		ctx := fixture.NewCountingContext(300)
		emits := 0
		err := MineContext(ctx, r, Options{K: 30, UseCFDMiner: true, Workers: workers}, func(core.CFD) { emits++ })
		if !errors.Is(err, context.Canceled) || emits != 0 {
			t.Fatalf("workers=%d: got %d CFDs, err %v; want none, context.Canceled", workers, emits, err)
		}
		// One look per closed-set worker inside a branch, one per pool
		// dispatch loop, the pool's report, and one from the free-set pass.
		if extra, bound := ctx.ChecksAfterCancel(), int64(2*workers+2); extra > bound {
			t.Errorf("workers=%d: %d context checks after cancellation, want at most %d", workers, extra, bound)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the cancelled runs, %d after", before, after)
	}
}

// cancellingComputer cancels its run's context from inside its at-th
// DiffSets call.
type cancellingComputer struct {
	diffset.Computer
	calls  atomic.Int64
	at     int64
	cancel context.CancelFunc
}

func (c *cancellingComputer) DiffSets(attrs core.AttrSet, tp core.Pattern) []core.AttrSet {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return c.Computer.DiffSets(attrs, tp)
}

// TestMineContextCancelledInTable cancels a run while it builds its
// difference-set table and asserts it returns ctx.Err() with nothing emitted,
// after at most one more pattern per other worker: the table observes ctx
// once per free set.
func TestMineContextCancelledInTable(t *testing.T) {
	r := fixture.Random(7, 300, []int{3, 4, 6, 2, 5, 8})
	const at = 10
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		comp := &cancellingComputer{Computer: diffset.NewNaive(r), at: at, cancel: cancel}
		emits := 0
		err := MineContext(ctx, r, Options{K: 2, Computer: comp, Workers: workers}, func(core.CFD) { emits++ })
		cancel()
		if !errors.Is(err, context.Canceled) || emits != 0 {
			t.Fatalf("workers=%d: got %d CFDs, err %v; want none, context.Canceled", workers, emits, err)
		}
		if calls, bound := comp.calls.Load(), int64(at+workers-1); calls > bound {
			t.Errorf("workers=%d: %d patterns computed, want at most %d", workers, calls, bound)
		}
	}
}

// TestMinimalDiffSetsRefusesUnknownPattern: every pattern a search reads is
// a free pattern of its run, so one missing from the table is a bug, reported
// by name, not an empty set of difference sets.
func TestMinimalDiffSetsRefusesUnknownPattern(t *testing.T) {
	r := fixture.Cust()
	f, err := newFinder(context.Background(), r, Options{K: 2}, &itemset.Mining{}, diffset.NewNaive(r))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p == nil {
			t.Error("a pattern missing from the table did not panic")
		}
	}()
	f.minimalDiffSets(core.EmptyAttrSet, core.NewPattern(r.Arity()), 0)
}
