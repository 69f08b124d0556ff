package violation

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/cfd"
	"repro/internal/core"
	"repro/rules"
)

// ErrRulesVersion is wrapped by SwapRulesIf when the engine serves none of the
// expected rules versions: the compare-and-swap lost, nothing changed.
var ErrRulesVersion = errors.New("rules version mismatch")

// SwapRules is the unconditional SwapRulesIf.
func (e *Engine) SwapRules(ctx context.Context, set *rules.Set) (rules.Delta, error) {
	return e.SwapRulesIf(ctx, set, nil)
}

// SwapRulesIf atomically replaces the engine's rule set with set (nil swaps to
// an empty set) and returns the rules.Diff between the old and new sets. A
// non-empty versions list makes it a compare-and-swap: the swap proceeds only
// while the served RulesVersion is one of them, evaluated under the same
// write lock that applies the swap — of any number of concurrent swaps
// expecting one version, exactly one wins and the rest get ErrRulesVersion. The
// tuples are untouched. Under the write lock, the index of every LHS
// attribute set whose rules are the same before and after is reused as it is,
// the index of every other LHS set of the new rules is built over the live
// tuples — one repro/internal/pool task per set — and indexes no new rule
// needs are dropped; the snapshot epoch is bumped, so a reader either sees
// the complete old state or the complete new one, never a half-swapped set.
//
// With a write-ahead log attached the swap is journaled (CommitLog.AppendRules)
// before it is applied; a failing append rejects the swap with ErrWAL and
// leaves the engine unchanged. A cancelled ctx aborts the index build and
// likewise leaves the engine unchanged. That holds although indexes are shared
// between rules: an index is only ever reused untouched or rebuilt off to the
// side, so nothing the live engine can reach changes before the commit.
func (e *Engine) SwapRulesIf(ctx context.Context, set *rules.Set, versions []string) (rules.Delta, error) {
	if set == nil {
		set = rules.Of()
	}
	obs := e.obs()
	var obsStart time.Time
	if obs != nil {
		obsStart = time.Now()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v := e.set.Fingerprint(); len(versions) > 0 && !slices.Contains(versions, v) {
		return rules.Delta{}, fmt.Errorf("violation: %w: serving %q, expected one of %q", ErrRulesVersion, v, versions)
	}
	delta := rules.Diff(e.set, set)

	newRules := append([]cfd.CFD(nil), set.CFDs()...)
	encoded, err := e.compileRules(newRules)
	if err != nil {
		return rules.Delta{}, err
	}
	current := make(map[core.AttrSet]*lhsIndex, len(e.indexes))
	for _, x := range e.indexes {
		current[x.LHS()] = x
	}
	var newIndexes, fresh []*lhsIndex
	for _, at := range groupByLHS(encoded) {
		x := reuseIndex(current[encoded[at[0]].LHS], encoded, at)
		if x == nil {
			x = newLHSIndex(encoded, at)
			fresh = append(fresh, x)
		}
		newIndexes = append(newIndexes, x)
	}
	// Build the fresh indexes over the live rows before anything is
	// committed: they are private until the final assignment, so an error (or
	// a cancelled context) discards them with no state change.
	if err := e.indexLive(ctx, 0, fresh); err != nil {
		return rules.Delta{}, err
	}
	// Journal the swap before applying it, like every other mutation.
	if e.wal != nil {
		if err := e.wal.AppendRules(set); err != nil {
			return rules.Delta{}, fmt.Errorf("violation: %w: %w", ErrWAL, err)
		}
	}
	// The swap's violation delta: a retained rule keeps its violating set (its
	// index above is reused or rebuilt to identical state), so only removed
	// rules remove violations and only added ones — whose fresh indexes are
	// fully built by now — add them.
	var added, removed []Violation
	for i, tuples := range e.violating(e.indexes, len(e.rules), positions(e.rules, delta.Removed)) {
		if len(tuples) > 0 {
			removed = append(removed, Violation{Rule: e.rules[i], Tuples: tuples})
		}
	}
	for i, tuples := range e.violating(newIndexes, len(newRules), positions(newRules, delta.Added)) {
		if len(tuples) > 0 {
			added = append(added, Violation{Rule: newRules[i], Tuples: tuples})
		}
	}
	// The delta's rule list must be non-nil even when swapping to the empty
	// set: in a Delta, nil Rules means "no swap happened".
	swapped := newRules
	if swapped == nil {
		swapped = []cfd.CFD{}
	}
	e.recordDelta(added, removed, swapped)
	e.set = set
	e.rules = newRules
	e.indexes = newIndexes
	e.bumpLocked()
	if obs != nil {
		obs.ObserveSwap(len(delta.Added), len(delta.Removed), len(delta.Retained), time.Since(obsStart).Seconds())
	}
	return delta, nil
}

// positions marks the rules of rs that sub lists. sub is a subsequence of rs,
// as the rules.Diff of rs's set lists its added or removed rules.
func positions(rs, sub []cfd.CFD) []bool {
	want := make([]bool, len(rs))
	for i := range rs {
		if len(sub) > 0 && rs[i].Equal(sub[0]) {
			want[i], sub = true, sub[1:]
		}
	}
	return want
}

// reuseIndex places the rules at positions at of encoded on the existing
// index x when x maintains exactly those rules, whatever their order: the
// result shares x's GroupIndex — untouched — under the new placement. It
// returns nil when x is nil or its rules differ, in which case the LHS set
// needs a fresh index: members carry codes only for the RHS attributes the
// index's own rules name, and tuples none of them applies to are not stored
// at all.
func reuseIndex(x *lhsIndex, encoded []core.CFD, at []int) *lhsIndex {
	if x == nil || len(x.at) != len(at) {
		return nil
	}
	byKey := make(map[string]int, len(at))
	for _, i := range at {
		byKey[encoded[i].Key()] = i
	}
	placed := make([]int, len(at))
	for r := range placed {
		i, ok := byKey[x.CFD(r).Key()]
		if !ok {
			return nil
		}
		placed[r] = i
	}
	return &lhsIndex{x.GroupIndex, placed}
}
