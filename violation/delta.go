package violation

import (
	"context"
	"errors"
	"sort"

	"repro/cfd"
)

// ErrCompacted is returned by Engine.Changes when the requested epoch range is
// no longer covered by the engine's bounded delta history — the since epoch
// predates the ring (or the engine was rebuilt, bulk loaded or re-based since).
// A client receiving it must resync with a full read (Report) and resume
// polling from the report's epoch.
var ErrCompacted = errors.New("delta history compacted")

// Delta is the violation-state change committed at one mutation epoch: the
// per-rule violating-set edits plus the resulting dirty-set edits, exactly
// what turns the report at Epoch-1 into the report at Epoch (see Apply).
// Merged deltas returned by Engine.Changes cover a span of epochs and carry
// the head epoch.
//
// Added and Removed hold one entry per rule whose violating set changed —
// tuples sorted ascending, listing only the tuples that entered (respectively
// left) that rule's violating set. DirtyAdded and DirtyRemoved are the sorted
// edits to the dirty union. Rules is non-nil only
// when the rule set itself changed in the span (a SwapRules commit) and then
// holds the full replacement rule list in serving order.
//
// Deltas are immutable once published; treat every slice as read-only.
type Delta struct {
	Epoch        uint64
	Added        []Violation
	Removed      []Violation
	DirtyAdded   []int
	DirtyRemoved []int
	Rules        []cfd.CFD
}

// Empty reports whether the delta carries no change at all (the rule set
// included).
func (d *Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Removed) == 0 &&
		len(d.DirtyAdded) == 0 && len(d.DirtyRemoved) == 0 && d.Rules == nil
}

// ruleKey is the canonical identity of a rule across the engine: the same key
// rules.Diff and SwapRules match rules by.
func ruleKey(r cfd.CFD) string { return r.Normalize().String() }

// Apply replays the delta onto the report it was computed against: given the
// full report at the delta's base epoch it returns the full report at
// d.Epoch. ruleTable must be the rule list in effect at d.Epoch; when the
// delta spans a rule swap (d.Rules != nil) the swapped-in list is used
// instead, so a client can pass whatever table it last knew. The returned
// report shares unchanged slices with prev; treat both as read-only.
//
// This is the one reconstruction path: the engine itself patches its serving
// snapshot with it, the oracle harness replays every delta through it, and an
// API client mirroring /v1/violations?since= follows the same algorithm.
func (d *Delta) Apply(prev *Report, ruleTable []cfd.CFD) *Report {
	table := ruleTable
	if d.Rules != nil {
		table = d.Rules
	}
	byKey := make(map[string][]int, len(prev.Violations))
	for _, v := range prev.Violations {
		byKey[ruleKey(v.Rule)] = v.Tuples
	}
	for _, v := range d.Removed {
		k := ruleKey(v.Rule)
		if ts := patchSorted(byKey[k], nil, v.Tuples); len(ts) == 0 {
			delete(byKey, k)
		} else {
			byKey[k] = ts
		}
	}
	for _, v := range d.Added {
		byKey[ruleKey(v.Rule)] = patchSorted(byKey[ruleKey(v.Rule)], v.Tuples, nil)
	}
	out := &Report{Epoch: d.Epoch, RulesChecked: len(table)}
	for _, r := range table {
		if ts := byKey[ruleKey(r)]; len(ts) > 0 {
			out.Violations = append(out.Violations, Violation{Rule: r, Tuples: ts})
		}
	}
	out.DirtyTuples = patchSorted(prev.DirtyTuples, d.DirtyAdded, d.DirtyRemoved)
	return out
}

// patchSorted merges the sorted edit lists into the sorted base set: base with
// the add elements inserted and the remove elements dropped, as a fresh slice
// (base itself when there is nothing to do). add and remove are disjoint;
// adding a present element or removing an absent one is tolerated (set
// semantics).
func patchSorted(base, add, remove []int) []int {
	if len(add) == 0 && len(remove) == 0 {
		return base
	}
	out := make([]int, 0, len(base)+len(add))
	ai, ri := 0, 0
	for _, v := range base {
		for ai < len(add) && add[ai] < v {
			out = append(out, add[ai])
			ai++
		}
		if ai < len(add) && add[ai] == v {
			ai++ // already present
		}
		for ri < len(remove) && remove[ri] < v {
			ri++ // not present; nothing to drop
		}
		if ri < len(remove) && remove[ri] == v {
			ri++
			continue
		}
		out = append(out, v)
	}
	out = append(out, add[ai:]...)
	return out
}

// mergeDeltas folds consecutive per-epoch deltas (oldest first) into one
// delta at the head epoch. Because a (rule, tuple) membership — and a tuple's
// dirty membership — strictly alternates between entering and leaving across
// commits, opposite edits cancel exactly and the fold is the symmetric
// difference between the two end states.
func mergeDeltas(ds []*Delta, epoch uint64) *Delta {
	if len(ds) == 1 {
		return ds[0]
	}
	out := &Delta{Epoch: epoch}
	type fold struct {
		rule  cfd.CFD
		signs map[int]int8
	}
	folds := make(map[string]*fold)
	var order []string
	acc := func(v Violation, sign int8) {
		k := ruleKey(v.Rule)
		f := folds[k]
		if f == nil {
			f = &fold{signs: make(map[int]int8)}
			folds[k] = f
			order = append(order, k)
		}
		f.rule = v.Rule
		for _, t := range v.Tuples {
			if f.signs[t] == -sign {
				delete(f.signs, t)
			} else {
				f.signs[t] = sign
			}
		}
	}
	dirty := make(map[int]int8)
	foldDirty := func(ts []int, sign int8) {
		for _, t := range ts {
			if dirty[t] == -sign {
				delete(dirty, t)
			} else {
				dirty[t] = sign
			}
		}
	}
	for _, d := range ds {
		for _, v := range d.Added {
			acc(v, 1)
		}
		for _, v := range d.Removed {
			acc(v, -1)
		}
		foldDirty(d.DirtyAdded, 1)
		foldDirty(d.DirtyRemoved, -1)
		if d.Rules != nil {
			out.Rules = d.Rules
		}
	}
	for _, k := range order {
		f := folds[k]
		var add, rem []int
		for t, s := range f.signs {
			if s > 0 {
				add = append(add, t)
			} else {
				rem = append(rem, t)
			}
		}
		sort.Ints(add)
		sort.Ints(rem)
		if len(add) > 0 {
			out.Added = append(out.Added, Violation{Rule: f.rule, Tuples: add})
		}
		if len(rem) > 0 {
			out.Removed = append(out.Removed, Violation{Rule: f.rule, Tuples: rem})
		}
	}
	for t, s := range dirty {
		if s > 0 {
			out.DirtyAdded = append(out.DirtyAdded, t)
		} else {
			out.DirtyRemoved = append(out.DirtyRemoved, t)
		}
	}
	sort.Ints(out.DirtyAdded)
	sort.Ints(out.DirtyRemoved)
	return out
}

// recordDelta publishes the violation delta of the commit in flight: it
// derives the dirty-set edits from the per-rule edits through the engine's
// dirty refcounts, stamps the delta with the epoch the commit is about to
// become, and pushes it into the bounded ring. added and removed hold one
// entry per rule (sorted tuples); newRules is non-nil for a rule swap.
// Callers hold the write lock and must bumpLocked right after.
func (e *Engine) recordDelta(added, removed []Violation, newRules []cfd.CFD) {
	d := &Delta{Epoch: e.epoch.Load() + 1, Added: added, Removed: removed, Rules: newRules}
	if e.dirtyRef == nil {
		e.dirtyRef = make(map[int]int)
	}
	// Added before removed: a tuple trading one violated rule for another then
	// never dips through zero, keeping DirtyAdded and DirtyRemoved disjoint.
	for _, v := range added {
		for _, t := range v.Tuples {
			if e.dirtyRef[t]++; e.dirtyRef[t] == 1 {
				d.DirtyAdded = append(d.DirtyAdded, t)
			}
		}
	}
	for _, v := range removed {
		for _, t := range v.Tuples {
			if e.dirtyRef[t]--; e.dirtyRef[t] == 0 {
				delete(e.dirtyRef, t)
				d.DirtyRemoved = append(d.DirtyRemoved, t)
			}
		}
	}
	sort.Ints(d.DirtyAdded)
	sort.Ints(d.DirtyRemoved)
	e.deltas[d.Epoch%uint64(len(e.deltas))] = d
	if e.deltaN < len(e.deltas) {
		e.deltaN++
	} else {
		// Ring full: this write overwrote the oldest answerable epoch.
		e.deltaEvictions.Add(1)
	}
}

// rebuildDirtyLocked re-derives the dirty refcounts from the indexes, after a
// bulk change that bypasses per-commit deltas (BulkLoad, restore). Callers
// hold the write lock.
func (e *Engine) rebuildDirtyLocked() {
	e.dirtyRef = make(map[int]int)
	for _, tuples := range e.violating(e.indexes, len(e.rules), nil) {
		for _, t := range tuples {
			e.dirtyRef[t]++
		}
	}
}

// bumpLocked commits a mutation epoch: it advances the epoch counter and
// wakes every WaitChange waiter. Callers hold the write lock and have already
// recorded the commit's delta (or reset the ring).
func (e *Engine) bumpLocked() {
	e.epoch.Add(1)
	close(e.watch)
	e.watch = make(chan struct{})
}

// resetViewLocked commits a mutation that is not delta-tracked (BulkLoad,
// restore): the ring is emptied — Changes across it reports ErrCompacted —
// and the dirty refcounts are rebuilt from the indexes. Callers hold the
// write lock.
func (e *Engine) resetViewLocked() {
	e.deltaN = 0
	e.rebuildDirtyLocked()
	e.bumpLocked()
}

// rebaseEpochLocked renumbers the engine's epoch (aligning it with a commit
// log's sequence numbers) and discards everything keyed by the old numbering:
// the delta ring and the cached snapshot. Callers hold the write lock.
func (e *Engine) rebaseEpochLocked(n uint64) {
	e.epoch.Store(n)
	e.deltaN = 0
	e.snap.Store(nil)
	close(e.watch)
	e.watch = make(chan struct{})
}

// Changes returns the merged delta covering the epochs (since, Epoch()]: what
// changed since the caller last looked. A since equal to the current epoch
// yields an empty delta at that epoch. If the range is not covered by the
// bounded delta history — too old, ahead of the engine, or spanning a bulk
// load or rebase — it returns ErrCompacted and the caller must resync with a
// full read. The returned delta is immutable; treat its slices as read-only.
func (e *Engine) Changes(since uint64) (*Delta, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, err := e.changesLocked(since)
	if err != nil {
		// Counted here, not in changesLocked: the snapshot patcher probing the
		// ring internally is not a client forced to resync.
		e.deltaCompacted.Add(1)
	}
	return d, err
}

// changesLocked is Changes with mu already held (either way).
func (e *Engine) changesLocked(since uint64) (*Delta, error) {
	head := e.epoch.Load()
	if since == head {
		return &Delta{Epoch: head}, nil
	}
	if since > head || head-since > uint64(e.deltaN) {
		return nil, ErrCompacted
	}
	ds := make([]*Delta, head-since)
	for i := range ds {
		ds[i] = e.deltas[(since+1+uint64(i))%uint64(len(e.deltas))]
	}
	return mergeDeltas(ds, head), nil
}

// WaitChange blocks until the engine's epoch differs from since (returning
// the new epoch immediately if it already does) or ctx is done (returning
// ctx.Err()). It is the long-poll primitive behind the serving layer's delta
// stream: wait, then Changes(since), then follow the returned epoch.
func (e *Engine) WaitChange(ctx context.Context, since uint64) (uint64, error) {
	waiting := false
	defer func() {
		if waiting {
			e.waiters.Add(-1)
		}
	}()
	for {
		e.mu.RLock()
		cur := e.epoch.Load()
		ch := e.watch
		e.mu.RUnlock()
		if cur != since {
			return cur, nil
		}
		if !waiting {
			waiting = true
			e.waiters.Add(1)
		}
		select {
		case <-ctx.Done():
			return cur, ctx.Err()
		case <-ch:
		}
	}
}
