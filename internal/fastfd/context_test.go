package fastfd

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/diffset"
	"repro/internal/fixture"
)

// TestMineContextPreCancelled asserts a cancelled context aborts FastFD with
// ctx.Err() before any right-hand side is searched.
func TestMineContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emits := 0
	err := MineContext(ctx, fixture.Cust(), nil, func(core.CFD) { emits++ })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if emits != 0 {
		t.Errorf("a cancelled run emitted %d FDs", emits)
	}
}

// TestMineContextMatchesMine pins the emit contract of a miner with no
// incremental structure: the sequence MineContext emits is already the cover
// the tests' mine helper makes of it — in canonical order, nothing twice.
func TestMineContextMatchesMine(t *testing.T) {
	r := fixture.Cust()
	emitted := fixture.Emitted(t, func(emit func(core.CFD)) error { return MineContext(context.Background(), r, nil, emit) })
	cover := mine(t, r, nil)
	if len(emitted) == 0 || len(emitted) != len(cover) {
		t.Fatalf("emitted %d FDs, the cover has %d", len(emitted), len(cover))
	}
	for i := range cover {
		if emitted[i].Key() != cover[i].Key() {
			t.Errorf("FD %d emitted out of canonical order: %s", i, emitted[i].Format(r))
		}
	}
}

// TestMineContextCancelledMidPrelude cancels a FastFD run inside the
// closed-item-set pass its default backend starts with — 18,459 2-frequent
// closed sets, one cancellation check each, against one check per attribute
// for the search proper — and asserts the run gives up there, after a bounded
// number of further checks, instead of mining the closed sets to the end
// under no context.
func TestMineContextCancelledMidPrelude(t *testing.T) {
	r := fixture.Random(11, 3000, []int{4, 6, 9, 12, 20, 30})
	for _, comp := range []diffset.Computer{nil, diffset.NewClosed(r)} {
		ctx := fixture.NewCountingContext(300)
		emits := 0
		err := MineContext(ctx, r, comp, func(core.CFD) { emits++ })
		if !errors.Is(err, context.Canceled) || emits != 0 {
			t.Fatalf("got %d FDs, err %v; want none, context.Canceled", emits, err)
		}
		// One look inside the closed-set search's branch, one in the pool's
		// dispatch loop, the pool's report.
		if extra := ctx.ChecksAfterCancel(); extra > 3 {
			t.Errorf("%d context checks after cancellation, want at most 3", extra)
		}
	}
}
