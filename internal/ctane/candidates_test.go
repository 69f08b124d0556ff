package ctane

import (
	"testing"

	"repro/internal/core"
)

// TestCandidateSetExhausted checks Step 3's emptiness test on the element
// (AB, (5, _)) of a three-attribute schema: it is exhausted once (A, 5),
// (B, _) and the attribute C are removed, though pairs (A, c) for c ≠ 5
// remain, and not while (B, _) is left.
func TestCandidateSetExhausted(t *testing.T) {
	all := core.SingleAttr(0).Add(1).Add(2)
	attrs := core.SingleAttr(0).Add(1)
	tp := core.NewPattern(3)
	tp[0] = 5
	var c candidateSet
	c.removeAttrs(core.SingleAttr(2))
	c.removeVal(0, 5)
	if c.exhausted(attrs, tp, all) {
		t.Error("exhausted with (B, _) left")
	}
	c.removeVal(1, core.Wildcard)
	if !c.has(0, 7) {
		t.Fatal("(A, 7) was removed")
	}
	if !c.exhausted(attrs, tp, all) {
		t.Error("not exhausted with only pairs the element and those above it cannot check left")
	}
}
