package violation_test

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// insertN inserts n throwaway tuples, one commit each, and returns their ids.
func insertN(t *testing.T, eng *violation.Engine, n int) []int {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		id, err := eng.Insert("01", "212", "1111111", "Ann", "5th Ave", "NYC", "01202")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestChangesRingBounds pins the bounded-history contract of Engine.Changes:
// a since equal to the head is an empty delta, a since within the ring is a
// merged delta, and anything outside — too old, ahead of the engine, or
// across a bulk load — is ErrCompacted.
func TestChangesRingBounds(t *testing.T) {
	fx := fixtures(t)[0]
	eng, err := violation.New(fx.rel.Attributes(), rules.Of(fx.rules...), violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.DeltaStats().Capacity; got != 1024 {
		t.Fatalf("delta ring capacity = %d, want 1024", got)
	}
	eng.SetDeltaHistory(4)
	if err := eng.BulkLoad(fx.rel); err != nil {
		t.Fatal(err)
	}
	base := eng.Epoch()

	// since == head: an empty delta carrying the head epoch.
	d, err := eng.Changes(base)
	if err != nil {
		t.Fatal(err)
	}
	if d.Epoch != base || !d.Empty() {
		t.Fatalf("Changes(head) = %+v, want the empty delta at %d", d, base)
	}
	// since ahead of the engine: not coverable.
	if _, err := eng.Changes(base + 1); !errors.Is(err, violation.ErrCompacted) {
		t.Fatalf("Changes(head+1) err = %v, want ErrCompacted", err)
	}

	// Fill the ring exactly: 4 commits with a 4-deep history.
	insertN(t, eng, 4)
	head := eng.Epoch()
	if head != base+4 {
		t.Fatalf("epoch = %d after 4 commits from %d", head, base)
	}
	if d, err = eng.Changes(base); err != nil {
		t.Fatalf("Changes across a full ring: %v", err)
	}
	if d.Epoch != head || len(d.DirtyAdded) != 4 {
		t.Fatalf("merged delta = %+v, want 4 dirty additions at epoch %d", d, head)
	}
	// One more commit evicts the oldest slot.
	insertN(t, eng, 1)
	if _, err := eng.Changes(base); !errors.Is(err, violation.ErrCompacted) {
		t.Fatalf("Changes past the ring err = %v, want ErrCompacted", err)
	}
	if _, err := eng.Changes(base + 1); err != nil {
		t.Fatalf("Changes at the ring edge: %v", err)
	}

	// A bulk load is not delta-tracked: it empties the history, even for
	// epochs that were still in the ring.
	pre := eng.Epoch()
	if err := eng.BulkLoad(fx.rel); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Changes(pre); !errors.Is(err, violation.ErrCompacted) {
		t.Fatalf("Changes across a bulk load err = %v, want ErrCompacted", err)
	}
	if d, err := eng.Changes(eng.Epoch()); err != nil || !d.Empty() {
		t.Fatalf("Changes(head) across a bulk load = %+v, %v", d, err)
	}
}

// TestMergedDeltaOutOfRuleOrder: a span whose later commit touches earlier
// rules lists the rules in the order the span first names them, not in rule
// order. Apply places every entry by its rule all the same — on the engine's
// own table, as the snapshot patch does, and on a client's table of copies
// that list an LHS in another order.
func TestMergedDeltaOutOfRuleOrder(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	prev := eng.Report()
	// The last rule wants CC = 01 everywhere; the first, AC = 131 → CT = EDI.
	if _, err := eng.Insert("44", "908", "1", "Ann", "5th Ave", "MH", "07974"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("01", "131", "2", "Bob", "5th Ave", "NYC", "01202"); err != nil {
		t.Fatal(err)
	}
	d, err := eng.Changes(prev.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	table := eng.Rules()
	var order []int
	for _, v := range d.Added {
		order = append(order, slices.IndexFunc(table, v.Rule.Equal))
	}
	if slices.IsSorted(order) {
		t.Fatalf("the merged delta lists its rules in rule order; the test needs a span that does not: %+v", d.Added)
	}
	client := make([]cfd.CFD, len(table))
	for i, r := range table {
		c, err := cfd.Parse(r.String())
		if err != nil {
			t.Fatal(err)
		}
		slices.Reverse(c.LHS)
		slices.Reverse(c.LHSPattern)
		client[i] = c
	}
	want := eng.Report()
	for name, tbl := range map[string][]cfd.CFD{"the engine's table": table, "a client's copies": client} {
		got := d.Apply(prev, tbl)
		if !violationsEqual(got.Violations, want.Violations) || !sameIDs(got.DirtyTuples, want.DirtyTuples) || got.RulesChecked != want.RulesChecked {
			t.Errorf("%s: applying the merged delta\n got: %+v\nwant: %+v", name, got, want)
		}
	}
	// A table without the first rule: its entries have nowhere to go.
	got := d.Apply(prev, table[1:])
	if !violationsEqual(got.Violations, want.Violations[1:]) || got.RulesChecked != len(table)-1 {
		t.Errorf("a table without %v: applying the merged delta\n got: %+v\nwant: %+v", table[0], got, want.Violations[1:])
	}
}

// TestWaitChange covers the long-poll primitive: immediate return on a stale
// since, wake-up on the next commit, and ctx cancellation.
func TestWaitChange(t *testing.T) {
	eng := custEngine(t, true, violation.Options{})
	head := eng.Epoch()

	// Already-moved epoch: returns without blocking.
	if got, err := eng.WaitChange(context.Background(), head-1); err != nil || got != head {
		t.Fatalf("WaitChange(stale) = %d, %v; want %d", got, err, head)
	}

	// Blocked waiter is woken by the next commit.
	done := make(chan uint64, 1)
	go func() {
		got, err := eng.WaitChange(context.Background(), head)
		if err != nil {
			t.Error(err)
		}
		done <- got
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	insertN(t, eng, 1)
	select {
	case got := <-done:
		if got != head+1 {
			t.Fatalf("woken at epoch %d, want %d", got, head+1)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitChange missed the commit")
	}

	// Cancellation unblocks with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := eng.WaitChange(ctx, eng.Epoch())
		errCh <- err
	}()
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled WaitChange err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitChange ignored cancellation")
	}
}

// TestDeltaResumeAcrossRestart is the durable half of the delta contract: the
// engine's epoch is aligned with the store's WAL sequence, so a delta client
// holding a pre-crash epoch resumes after a crash-replay restart as if
// nothing happened — and after a compaction folds the tail away, it gets
// ErrCompacted and resyncs with a full read.
func TestDeltaResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})

	// The client's last full read, before any logged mutation.
	prev := eng.Report()
	table := eng.Rules()
	if prev.Epoch != st.Seq() {
		t.Fatalf("epoch %d is not aligned with the WAL sequence %d", prev.Epoch, st.Seq())
	}

	// Logged mutations, including a rule swap mid-stream.
	ids := insertN(t, eng, 2)
	if err := eng.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SwapRules(context.Background(), rules.Of(cfd.NewFD([]string{"CC", "AC"}, "CT"))); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != st.Seq() {
		t.Fatalf("epoch %d drifted from the WAL sequence %d", eng.Epoch(), st.Seq())
	}

	// Crash (no final compaction: the WAL tail survives) and rebuild: replay
	// repopulates the delta ring, so the pre-crash since still resolves.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	eng2 := reload(t, dir)
	if eng2.Epoch() != eng.Epoch() {
		t.Fatalf("restarted epoch %d, want %d", eng2.Epoch(), eng.Epoch())
	}
	d, err := eng2.Changes(prev.Epoch)
	if err != nil {
		t.Fatalf("Changes(%d) after crash-replay: %v", prev.Epoch, err)
	}
	if d.Rules == nil {
		t.Fatal("the replayed span contains a swap; the merged delta must carry the rule table")
	}
	applied := d.Apply(prev, table)
	fresh := eng2.Report()
	if applied.Epoch != fresh.Epoch || !violationsEqual(applied.Violations, fresh.Violations) ||
		!sameIDs(applied.DirtyTuples, fresh.DirtyTuples) || applied.RulesChecked != fresh.RulesChecked {
		t.Fatalf("delta resume diverges\napplied: %+v\nfresh:   %+v", applied, fresh)
	}

	// Compact and restart again: the tail is folded into the snapshot, the
	// ring starts empty, and the old since must be refused — the client
	// resyncs with a full read and carries on from its epoch.
	st2, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Compact(eng2); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	eng3 := reload(t, dir)
	if _, err := eng3.Changes(prev.Epoch); !errors.Is(err, violation.ErrCompacted) {
		t.Fatalf("Changes(%d) after compaction err = %v, want ErrCompacted", prev.Epoch, err)
	}
	resync := eng3.Report()
	if !violationsEqual(resync.Violations, fresh.Violations) {
		t.Fatal("full resync diverges from the pre-compaction state")
	}
	if d, err := eng3.Changes(resync.Epoch); err != nil || !d.Empty() {
		t.Fatalf("Changes at the resynced epoch = %+v, %v", d, err)
	}
}
