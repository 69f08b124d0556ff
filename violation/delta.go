package violation

import (
	"context"
	"errors"
	"slices"
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

// ruleSlots numbers the rules the reports and deltas of one span name, so
// that their entries can be folded per rule; the rules of table get their
// positions. An entry's rule is found with CFD.Equal by walking the table on
// from the previous match, wrapping round: entries listed in table order cost
// one comparison each, and an entry out of it — a merged delta's later rule,
// a rule a swap kept at another position — is found all the same. Only a rule
// outside the table (one a swap removed) is rendered, to a ruleKey that gives
// it a slot past the table.
type ruleSlots struct {
	table []cfd.CFD
	next  int            // where the walk resumes
	keys  map[string]int // rules outside the table, by canonical key
	n     int            // slots handed out
}

func newRuleSlots(table []cfd.CFD) *ruleSlots {
	return &ruleSlots{table: table, n: len(table)}
}

// of returns r's slot.
func (s *ruleSlots) of(r cfd.CFD) int {
	for n := range len(s.table) {
		if i := (s.next + n) % len(s.table); s.table[i].Equal(r) {
			s.next = i + 1
			return i
		}
	}
	if s.keys == nil {
		s.keys = make(map[string]int)
	}
	k := ruleKey(r)
	i, ok := s.keys[k]
	if !ok {
		i, s.n = s.n, s.n+1
		s.keys[k] = i
	}
	return i
}

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
	slots := newRuleSlots(table)
	sets := make([][]int, len(table)) // by slot
	at := func(r cfd.CFD) *[]int {
		i := slots.of(r)
		for len(sets) <= i {
			sets = append(sets, nil)
		}
		return &sets[i]
	}
	for _, v := range prev.Violations {
		*at(v.Rule) = v.Tuples
	}
	for _, v := range d.Removed {
		ts := at(v.Rule)
		*ts = patchSorted(*ts, nil, v.Tuples)
	}
	for _, v := range d.Added {
		ts := at(v.Rule)
		*ts = patchSorted(*ts, v.Tuples, nil)
	}
	out := &Report{Epoch: d.Epoch, RulesChecked: len(table)}
	for i, r := range table {
		if ts := sets[i]; len(ts) > 0 {
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
// semantics). The runs of base between two edits are copied whole, so a few
// edits to a long set — the dirty list after a handful of commits — cost
// little more than the copy.
func patchSorted(base, add, remove []int) []int {
	if len(add) == 0 && len(remove) == 0 {
		return base
	}
	out := make([]int, 0, len(base)+len(add))
	for len(add) > 0 || len(remove) > 0 {
		adding := len(remove) == 0 || len(add) > 0 && add[0] <= remove[0]
		x := 0
		if adding {
			x, add = add[0], add[1:]
		} else {
			x, remove = remove[0], remove[1:]
		}
		i := below(base, x)
		out, base = append(out, base[:i]...), base[i:]
		present := len(base) > 0 && base[0] == x
		switch {
		case adding && !present:
			out = append(out, x)
		case !adding && present:
			base = base[1:]
		}
	}
	return append(out, base...)
}

// below returns how many elements of the sorted s are less than x, searching
// from the front in steps that double: the cost grows with the answer's
// logarithm, not with the length of s.
func below(s []int, x int) int {
	hi := 1
	for hi <= len(s) && s[hi-1] < x {
		hi *= 2
	}
	lo := hi / 2
	return lo + sort.SearchInts(s[lo:min(hi, len(s))], x)
}

// edits gathers a span's edits to one set, commit by commit: the sorted
// lists of ids that entered it and of ids that left it.
type edits struct {
	add, rem [][]int
}

func (e *edits) record(add, rem []int) {
	if len(add) > 0 {
		e.add = append(e.add, add)
	}
	if len(rem) > 0 {
		e.rem = append(e.rem, rem)
	}
}

// net folds the span's edits into its net edit, sorted. A membership
// strictly alternates between entering and leaving, so an id that entered
// more often than it left is a net entry, one that left more often a net
// leave, and any other id ends where it began. Each side is gathered and
// sorted once, so the fold costs O(n log n) in the ids the span lists, however
// many commits they come in.
func (e *edits) net() (add, rem []int) {
	a, r := gather(e.add), gather(e.rem)
	if len(a) == 0 || len(r) == 0 {
		return a, r // nothing to cancel
	}
	for len(a) > 0 && len(r) > 0 {
		x, na, nr := min(a[0], r[0]), 0, 0
		for ; na < len(a) && a[na] == x; na++ {
		}
		for ; nr < len(r) && r[nr] == x; nr++ {
		}
		a, r = a[na:], r[nr:]
		switch {
		case na > nr:
			add = append(add, x)
		case nr > na:
			rem = append(rem, x)
		}
	}
	return append(add, a...), append(rem, r...)
}

// gather returns the ids of the sorted lists ls as one sorted list: the list
// itself when there is only one.
func gather(ls [][]int) []int {
	if len(ls) == 1 {
		return ls[0]
	}
	s := slices.Concat(ls...)
	slices.Sort(s)
	return s
}

// mergeDeltas folds consecutive per-epoch deltas (oldest first) into one
// delta at the head epoch; table is the rule table at the head. Because a
// (rule, tuple) membership — and a tuple's dirty membership — strictly
// alternates between entering and leaving across commits, opposite edits
// cancel exactly and the fold is the symmetric difference between the two
// end states. Rules are listed in the order the span first names them.
func mergeDeltas(ds []*Delta, epoch uint64, table []cfd.CFD) *Delta {
	if len(ds) == 1 {
		return ds[0]
	}
	out := &Delta{Epoch: epoch}
	type fold struct {
		rule cfd.CFD
		edits
	}
	slots := newRuleSlots(table)
	var folds []*fold // by slot
	var order []int   // slots, first named first
	at := func(r cfd.CFD) *fold {
		i := slots.of(r)
		for len(folds) <= i {
			folds = append(folds, nil)
		}
		if folds[i] == nil {
			folds[i] = &fold{}
			order = append(order, i)
		}
		folds[i].rule = r
		return folds[i]
	}
	var dirty edits
	for _, d := range ds {
		for _, v := range d.Added {
			at(v.Rule).record(v.Tuples, nil)
		}
		for _, v := range d.Removed {
			at(v.Rule).record(nil, v.Tuples)
		}
		dirty.record(d.DirtyAdded, d.DirtyRemoved)
		if d.Rules != nil {
			out.Rules = d.Rules
		}
	}
	for _, i := range order {
		f := folds[i]
		add, rem := f.net()
		if len(add) > 0 {
			out.Added = append(out.Added, Violation{Rule: f.rule, Tuples: add})
		}
		if len(rem) > 0 {
			out.Removed = append(out.Removed, Violation{Rule: f.rule, Tuples: rem})
		}
	}
	out.DirtyAdded, out.DirtyRemoved = dirty.net()
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
	if n := e.rel.Size(); len(e.dirtyRef) < n {
		e.dirtyRef = append(e.dirtyRef, make([]int32, n-len(e.dirtyRef))...)
	}
	// Added before removed: a tuple trading one violated rule for another then
	// never dips through zero, keeping DirtyAdded and DirtyRemoved disjoint.
	for _, v := range added {
		for _, t := range v.Tuples {
			if e.dirtyRef[t]++; e.dirtyRef[t] == 1 {
				e.dirty++
				d.DirtyAdded = append(d.DirtyAdded, t)
			}
		}
	}
	for _, v := range removed {
		for _, t := range v.Tuples {
			if e.dirtyRef[t]--; e.dirtyRef[t] == 0 {
				e.dirty--
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

// bumpLocked commits a mutation epoch: it advances the epoch by one. Callers
// hold the write lock and have already recorded the commit's delta.
func (e *Engine) bumpLocked() { e.setEpochLocked(e.epoch.Load() + 1) }

// commitBulkLocked commits a change that bypasses the per-commit deltas
// (BulkLoad, restore) at epoch: it empties the ring — Changes across it
// reports ErrCompacted — recounts the dirty refcounts in the one full build of
// the report and publishes that report, before the epoch, as the view at
// epoch. Callers hold the write lock.
func (e *Engine) commitBulkLocked(epoch uint64) {
	e.deltaN = 0
	e.snap.Store(e.buildReport(epoch, true))
	e.setEpochLocked(epoch)
}

// setEpochLocked moves the epoch to n and wakes every WaitChange waiter.
// Callers hold the write lock.
func (e *Engine) setEpochLocked(n uint64) {
	e.epoch.Store(n)
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
	return mergeDeltas(ds, head, e.rules), nil
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
