package fastcfd

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/fixture"
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
