package violation_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// durableEngine builds the standard deployment: an engine over the cust
// fixture, an initial compacted snapshot, and the store attached as WAL.
func durableEngine(t *testing.T, dir string, opts violation.StoreOptions) (*violation.Engine, *violation.Store) {
	t.Helper()
	st, err := violation.OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := custEngine(t, true, violation.Options{})
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(st)
	return eng, st
}

// reload closes nothing (simulating a crash) and rebuilds the engine from the
// directory.
func reload(t *testing.T, dir string) *violation.Engine {
	t.Helper()
	st, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Close right after the rebuild: the store is never attached, and
	// releasing its directory lock lets the test reopen the directory.
	defer st.Close()
	eng, found, err := st.Load(violation.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("store has state, Load must find it")
	}
	return eng
}

// TestStoreRoundTrip: snapshot + WAL replay rebuild the engine byte for byte —
// report, ids, rows, schema and rule set with provenance.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})

	// A mix of logged mutations: per-op and batch, including a delete that
	// leaves an id hole and an insert above it.
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Update(2, "01", "212", "2222222", "Joe", "5th Ave", "NYC", "10012"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(6); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: []string{"86", "10", "8888888", "Wei", "Main Rd.", "BJ", "100000"}},
		{Kind: violation.OpDelete, ID: 0},
		{Kind: violation.OpUpdate, ID: 8, Values: []string{"44", "131", "5555555", "Amy", "High St.", "EDI", "EH4 1DT"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	back := reload(t, dir)
	assertSameState(t, eng, back)
	if !reflect.DeepEqual(back.Attributes(), eng.Attributes()) {
		t.Fatalf("attributes = %v", back.Attributes())
	}
	if back.RuleSet().Len() != eng.RuleSet().Len() {
		t.Fatalf("rule set lost: %d rules", back.RuleSet().Len())
	}
	// The restored engine keeps assigning ids where the original would.
	id, err := back.Insert("01", "908", "1111111", "Zoe", "Tree Ave.", "MH", "07974")
	if err != nil {
		t.Fatal(err)
	}
	if id != 10 {
		t.Fatalf("next id after restore = %d, want 10", id)
	}
}

// TestStoreCompactMidStream: compacting between mutations folds the prefix
// into the snapshot; replay applies only the tail, in either crash window.
func TestStoreCompactMidStream(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	if st.Pending() != 0 {
		t.Fatalf("pending = %d after compaction, want 0", st.Pending())
	}
	wal := filepath.Join(dir, "wal.jsonl")
	if data, err := os.ReadFile(wal); err != nil || len(data) != 0 {
		t.Fatalf("wal after quiescent compaction: %d bytes, err=%v", len(data), err)
	}
	if err := eng.Delete(8); err != nil {
		t.Fatal(err)
	}
	if st.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", st.Pending())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, eng, reload(t, dir))
}

// TestStoreStaleWALRecordsSkipped: a crash between snapshot rename and WAL
// truncation leaves folded records in the log; sequence numbers keep replay
// from applying them twice, and the records after them — the unfolded tail —
// are replayed once.
func TestStoreStaleWALRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.jsonl")
	logged, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert("86", "10", "8888888", "Wei", "Main Rd.", "BJ", "100000"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the folded record below the fresh tail, as if truncation
	// never happened.
	tail, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, append(logged, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	back := reload(t, dir)
	assertSameState(t, eng, back)
	if back.Size() != 10 {
		t.Fatalf("size = %d, want 10: the stale insert replayed twice or the tail lost", back.Size())
	}
}

// TestStoreTornTail: a partial trailing record (crash mid-append) is
// truncated away on open; everything before it survives, and the log accepts
// new appends afterwards.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.jsonl")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"ops":[{"op":"ins`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, found, err := st2.Load(violation.Options{})
	if err != nil || !found {
		t.Fatalf("load after torn tail: found=%v err=%v", found, err)
	}
	assertSameState(t, eng, back)
	back.AttachWAL(st2)
	if err := back.Delete(8); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if back2 := reload(t, dir); back2.Size() != 8 {
		t.Fatalf("size after torn tail + new op = %d, want 8", back2.Size())
	}
}

// TestStoreTornTailMissingNewline: a crash can persist a record's complete
// JSON but not its trailing newline. Append only returns success after
// record+'\n' is written, so the fragment was never committed: recovery must
// drop it — without zero-extending the file — and later appends and reopens
// must stay intact.
func TestStoreTornTailMissingNewline(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.jsonl")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Complete JSON, torn before the newline.
	if _, err := f.WriteString(`{"seq":2,"ops":[{"op":"delete","id":8}]}`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	back, found, err := st2.Load(violation.Options{})
	if err != nil || !found {
		t.Fatalf("load after newline-less tear: found=%v err=%v", found, err)
	}
	// The torn delete was never committed: tuple 8 must still be live.
	if back.Size() != 9 {
		t.Fatalf("size = %d, want 9 (torn record must not replay)", back.Size())
	}
	back.AttachWAL(st2)
	if err := back.Update(8, "44", "131", "5555555", "Amy", "High St.", "EDI", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	// The post-tear append starts exactly where the fragment began: the log
	// must hold intact, NUL-free lines and replay cleanly once more.
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "\x00") {
		t.Fatalf("wal zero-extended across the tear: %q", data)
	}
	back2 := reload(t, dir)
	assertSameState(t, back, back2)
}

// swapSet is the replacement rule set the lifecycle tests swap to: it keeps
// the street FD, drops everything else and adds a rule the engine has never
// indexed.
func swapSet() *rules.Set {
	return rules.Of(
		cfd.NewFD([]string{"CC", "ZIP"}, "STR"),
		cfd.NewFD([]string{"NM"}, "PN"),
	)
}

// assertSameRules compares the rule sets two engines serve, content and
// order.
func assertSameRules(t *testing.T, a, b *violation.Engine) {
	t.Helper()
	sa, sb := a.RuleSet(), b.RuleSet()
	if sa.Fingerprint() != sb.Fingerprint() {
		t.Fatalf("rule fingerprints differ: %s vs %s", sa.Fingerprint(), sb.Fingerprint())
	}
	if !reflect.DeepEqual(sa.CFDs(), sb.CFDs()) {
		t.Fatalf("rule sets differ:\n%v\nvs\n%v", sa.CFDs(), sb.CFDs())
	}
}

// TestStoreSwapReplay: a rule swap is journaled as a WAL record; a crash
// right after it (no compaction) must replay into the swapped rule set, and
// ops logged on either side of the swap must replay under the rule set that
// was current when they were applied.
func TestStoreSwapReplay(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SwapRules(context.Background(), swapSet()); err != nil {
		t.Fatal(err)
	}
	// Mutations after the swap are maintained under the new rules.
	if _, err := eng.Insert("01", "212", "1234567", "Ann", "Other St.", "NYC", "01202"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // crash: no final compaction
		t.Fatal(err)
	}
	back := reload(t, dir)
	assertSameState(t, eng, back)
	assertSameRules(t, eng, back)
}

// TestStoreSwapThenCompact: compaction after a swap folds the swap into the
// snapshot (the snapshot carries the rule set); the WAL empties and a reload
// must come back under the new rules without replaying anything.
func TestStoreSwapThenCompact(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.SwapRules(context.Background(), swapSet()); err != nil {
		t.Fatal(err)
	}
	if st.Pending() != 1 {
		t.Fatalf("pending = %d after a swap, want 1", st.Pending())
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.jsonl")
	if data, err := os.ReadFile(wal); err != nil || len(data) != 0 {
		t.Fatalf("wal after post-swap compaction: %d bytes, err=%v", len(data), err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back := reload(t, dir)
	assertSameState(t, eng, back)
	assertSameRules(t, eng, back)
}

// TestStoreSwapAfterCompact: the swap record lands above the snapshot's
// sequence, so replay must apply it — the restart window of a kill right
// after a swap that followed a compaction.
func TestStoreSwapAfterCompact(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SwapRules(context.Background(), swapSet()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back := reload(t, dir)
	assertSameState(t, eng, back)
	assertSameRules(t, eng, back)
}

// TestStoreStaleSwapRecordSkipped: a crash between snapshot rename and WAL
// truncation can leave an already-folded swap record in the log; replay must
// skip it by sequence number instead of re-applying it over newer rules.
func TestStoreStaleSwapRecordSkipped(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.SwapRules(context.Background(), swapSet()); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.jsonl")
	logged, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	// Swap once more, so a replayed stale record would visibly regress.
	final := rules.Of(cfd.NewFD([]string{"NM"}, "PN"))
	if _, err := eng.SwapRules(context.Background(), final); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the folded swap record below the fresh tail, as if the
	// compaction's truncation never happened.
	tail, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, append(logged, tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	back := reload(t, dir)
	assertSameState(t, eng, back)
	assertSameRules(t, eng, back)
	if got := back.RuleSet().Fingerprint(); got != final.Fingerprint() {
		t.Fatalf("stale swap record replayed: serving %s, want %s", got, final.Fingerprint())
	}
}

// TestStoreTornSwapRecord: a crash mid-append of a swap record leaves a torn
// tail; recovery truncates it and serves the pre-swap rule set — the swap
// never committed.
func TestStoreTornSwapRecord(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wal := filepath.Join(dir, "wal.jsonl")
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"rules":{"rules":["([NM] -`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back := reload(t, dir)
	assertSameState(t, eng, back)
	assertSameRules(t, eng, back)
}

// TestStoreEmpty: a fresh directory has no state; a WAL without a snapshot is
// corruption.
func TestStoreEmpty(t *testing.T) {
	dir := t.TempDir()
	st, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if eng, found, err := st.Load(violation.Options{}); err != nil || found || eng != nil {
		t.Fatalf("empty store: eng=%v found=%v err=%v", eng, found, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A WAL with no snapshot cannot be replayed against anything.
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"),
		[]byte(`{"seq":1,"ops":[{"op":"delete","id":0}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, _, err := st2.Load(violation.Options{}); err == nil || !strings.Contains(err.Error(), "no snapshot.json") {
		t.Fatalf("WAL without snapshot: err = %v", err)
	}
}

// TestStoreCorruptSnapshot: a mangled snapshot fails loudly at open, and so
// does a format 1 snapshot (no longer read) — with an error that names the
// format and the way out, leaving the directory unlocked and untouched.
func TestStoreCorruptSnapshot(t *testing.T) {
	format1 := `{"format":1,"wal_seq":3,"attributes":["A","B"],"ruleset":{"rules":["([A] -> B, (_ || _))"]},"next_id":3,"tuples":[{"id":0,"values":["x","1"]},{"id":2,"values":["x","2"]}]}`
	for _, tc := range []struct{ name, snapshot, want string }{
		{"mangled", "{half", "unreadable snapshot.json"},
		{"format1", format1, "format 1 (per-tuple list) is no longer read: start any build from PR 9 to PR 14"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, st := durableEngine(t, dir, violation.StoreOptions{})
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "snapshot.json")
			if err := os.WriteFile(path, []byte(tc.snapshot), 0o644); err != nil {
				t.Fatal(err)
			}
			for attempt := 0; attempt < 2; attempt++ { // the failed open must release the lock
				if _, err := violation.OpenStore(dir, violation.StoreOptions{}); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("OpenStore attempt %d: err = %v, want one containing %q", attempt, err, tc.want)
				}
			}
			if data, err := os.ReadFile(path); err != nil || string(data) != tc.snapshot {
				t.Fatalf("a refused snapshot was rewritten: %q (err %v)", data, err)
			}
		})
	}
}

// TestStoreSync: the fsync'd configuration behaves identically (the test
// cannot assert durability against power loss, but exercises the code path).
func TestStoreSync(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{Sync: true})
	if _, err := eng.Insert("44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, eng, reload(t, dir))
}

// TestStoreCompactUnderWrites races compactions against a writer: whatever
// interleaving happens (quiescent truncation or busy tail rewrite), a reload
// must reproduce the final engine state exactly, and a final quiescent
// compaction must fold the whole log.
func TestStoreCompactUnderWrites(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 150; i++ {
			id, err := eng.Insert("01", "212", fmt.Sprintf("%07d", i), "Ann", "5th Ave", "NYC", "01202")
			if err != nil {
				done <- err
				return
			}
			if i%2 == 0 {
				if err := eng.Delete(id); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for i := 0; i < 8; i++ {
		if err := st.Compact(eng); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	if got := st.Pending(); got != 0 {
		t.Fatalf("pending = %d after quiescent compaction, want 0", got)
	}
	wal := filepath.Join(dir, "wal.jsonl")
	if data, err := os.ReadFile(wal); err != nil || len(data) != 0 {
		t.Fatalf("wal after quiescent compaction: %d bytes, err=%v", len(data), err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, eng, reload(t, dir))
}

// TestStoreReplayRejectsBadOps: a log whose ops cannot apply (here: deleting
// a tuple that never existed) fails recovery instead of silently diverging.
func TestStoreReplayRejectsBadOps(t *testing.T) {
	dir := t.TempDir()
	_, st := durableEngine(t, dir, violation.StoreOptions{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"),
		[]byte(`{"seq":1,"ops":[{"op":"delete","id":999}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, _, err := st2.Load(violation.Options{}); !errors.Is(err, violation.ErrNotFound) {
		t.Fatalf("replaying an impossible op: err = %v, want ErrNotFound", err)
	}
}
