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

// RuleCommitLog is the optional extension of CommitLog a write-ahead log must
// implement for the engine to accept live rule swaps: AppendRules journals
// the full replacement rule set as one record, so replay restores the rule
// set that was current at the crash, not the one the process booted with.
// *Store implements it.
type RuleCommitLog interface {
	CommitLog
	AppendRules(set *rules.Set) error
}

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
// tuples are untouched. Under the write lock, indexes of retained rules are
// reused as they are, indexes for added rules are built over the live tuples
// — fanned out across the added rules on repro/internal/pool — and removed
// rules are dropped; the shard partition is recomputed and the snapshot
// epoch bumped, so a reader either sees the complete old state or the
// complete new one, never a half-swapped set.
//
// With a write-ahead log attached the swap is journaled (as a rule record,
// see RuleCommitLog) before it is applied; a log that does not implement
// RuleCommitLog, or whose append fails, rejects the swap with ErrWAL and
// leaves the engine unchanged. A cancelled ctx aborts the index build for
// added rules and likewise leaves the engine unchanged.
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

	// Match new rules against the current indexes by canonical rule key;
	// duplicates are consumed pairwise, exactly as rules.Diff counts them.
	avail := make(map[string][]int, len(e.rules))
	for i, r := range e.rules {
		k := r.Normalize().String()
		avail[k] = append(avail[k], i)
	}
	newRules := append([]cfd.CFD(nil), set.CFDs()...)
	newIndexes := make([]*core.RuleIndex, len(newRules))
	var fresh [][]int // one group per added rule, whose index must be built
	for i, r := range newRules {
		k := r.Normalize().String()
		if q := avail[k]; len(q) > 0 {
			newIndexes[i] = e.indexes[q[0]]
			avail[k] = q[1:]
			continue
		}
		ix, err := e.compileRule(r)
		if err != nil {
			return rules.Delta{}, err
		}
		newIndexes[i] = ix
		fresh = append(fresh, []int{i})
	}
	// Build the indexes of added rules over the live rows before anything is
	// committed: the fresh indexes are private until the final assignment, so
	// an error (or a cancelled context) discards them with no state change.
	if len(fresh) > 0 {
		if err := e.indexLive(ctx, 0, newIndexes, fresh); err != nil {
			return rules.Delta{}, err
		}
	}
	// Journal the swap before applying it, like every other mutation.
	if e.wal != nil {
		rl, ok := e.wal.(RuleCommitLog)
		if !ok {
			return rules.Delta{}, fmt.Errorf("violation: %w: attached commit log %T cannot journal rule swaps", ErrWAL, e.wal)
		}
		if err := rl.AppendRules(set); err != nil {
			return rules.Delta{}, fmt.Errorf("violation: %w: %w", ErrWAL, err)
		}
	}
	// The swap's violation delta, by canonical rule key: a retained key keeps
	// its violating set (the indexes above are reused or rebuilt to identical
	// state), so only dropped keys remove violations and only added keys —
	// whose fresh indexes are fully built by now — add them. One entry per
	// distinct key, like every delta.
	oldKey := make(map[string]bool, len(e.rules))
	for _, r := range e.rules {
		oldKey[ruleKey(r)] = true
	}
	newKey := make(map[string]bool, len(newRules))
	for _, r := range newRules {
		newKey[ruleKey(r)] = true
	}
	var added, removed []Violation
	seen := make(map[string]bool)
	for i, r := range e.rules {
		if k := ruleKey(r); !newKey[k] && !seen[k] {
			seen[k] = true
			if e.indexes[i].BadTuples() > 0 {
				removed = append(removed, Violation{Rule: r, Tuples: e.indexes[i].Violating()})
			}
		}
	}
	for i, r := range newRules {
		if k := ruleKey(r); !oldKey[k] && !seen[k] {
			seen[k] = true
			if newIndexes[i].BadTuples() > 0 {
				added = append(added, Violation{Rule: r, Tuples: newIndexes[i].Violating()})
			}
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
	e.shards = shardIndexes(len(newIndexes), e.workers)
	e.bumpLocked()
	if obs != nil {
		obs.ObserveSwap(len(delta.Added), len(delta.Removed), len(delta.Retained), time.Since(obsStart).Seconds())
	}
	return delta, nil
}
