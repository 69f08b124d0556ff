// Package tane is TANE (Huhtala et al., 1999), the levelwise algorithm for
// discovering minimal functional dependencies that CTANE extends: the
// classical baseline the paper builds on (§1.1), kept for the tests and
// benchmarks that compare FD discovery with CFD discovery. It runs on
// CTANE's lattice restricted to the all-wildcard items.
//
// FDs are returned as core.CFD values with all-wildcard pattern tuples.
package tane

import (
	"context"

	"repro/internal/core"
	"repro/internal/ctane"
)

// MineContext hands emit, in canonical order once the traversal is done, the
// minimal functional dependencies X -> A that hold on r, expressed as CFDs
// with all-wildcard patterns. Dependencies with an empty left-hand side
// (constant attributes) are included. Cancellation is observed once per
// lattice level; a cancelled run returns ctx.Err().
func MineContext(ctx context.Context, r *core.Relation, emit func(core.CFD)) error {
	return ctane.MineFDs(ctx, r, emit)
}
