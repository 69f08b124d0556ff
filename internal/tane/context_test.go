package tane

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
)

// TestMineContextPreCancelled asserts a cancelled context aborts TANE with
// ctx.Err() before any level is processed.
func TestMineContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	emits := 0
	err := MineContext(ctx, fixture.Cust(), func(core.CFD) { emits++ })
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
	emitted := fixture.Emitted(t, func(emit func(core.CFD)) error { return MineContext(context.Background(), r, emit) })
	cover := mine(t, r)
	if len(emitted) == 0 || len(emitted) != len(cover) {
		t.Fatalf("emitted %d FDs, the cover has %d", len(emitted), len(cover))
	}
	for i := range cover {
		if emitted[i].Key() != cover[i].Key() {
			t.Errorf("FD %d emitted out of canonical order: %s", i, emitted[i].Format(r))
		}
	}
}
