package violation_test

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/violation"
)

// TestInsertAt: an insert pinned with At lands at exactly that id, skipped
// ids stay unassigned holes, and the sequential counter continues after the
// highest pinned id — the contract a cluster coordinator relies on to keep
// globally assigned ids stable on the owning shard.
func TestInsertAt(t *testing.T) {
	eng := custEngine(t, true, violation.Options{}) // ids 0..7 live
	at := func(id int) *int { return &id }
	row := []string{"01", "908", "7777777", "Pat", "Tree Ave.", "MH", "07974"}

	ids, err := eng.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row, At: at(12)}})
	if err != nil || len(ids) != 1 || ids[0] != 12 {
		t.Fatalf("pinned insert: ids=%v err=%v", ids, err)
	}
	if got := eng.NextID(); got != 13 {
		t.Fatalf("NextID after pin at 12 = %d, want 13", got)
	}
	if _, err := eng.Row(10); err == nil {
		t.Fatal("skipped id 10 must stay a hole")
	}
	if vals, err := eng.Row(12); err != nil || vals[3] != "Pat" {
		t.Fatalf("Row(12) = %v, %v", vals, err)
	}

	// The next sequential insert continues past the pin.
	id, err := eng.Insert("44", "131", "6666666", "Una", "High St.", "EDI", "EH4 1DT")
	if err != nil || id != 13 {
		t.Fatalf("sequential insert after pin: id=%d err=%v", id, err)
	}

	// Pinning a live id is refused atomically; nothing of the batch lands.
	if _, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: row},
		{Kind: violation.OpInsert, Values: row, At: at(13)},
	}); err == nil || !strings.Contains(err.Error(), "tuple exists") {
		t.Fatalf("pin at live id: err = %v, want tuple exists", err)
	}
	if eng.NextID() != 14 {
		t.Fatalf("failed batch must not move NextID: %d", eng.NextID())
	}
	if _, err := eng.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row, At: at(-1)}}); err == nil {
		t.Fatal("negative pin must be refused")
	}

	// A pin may fill a hole, including one freed earlier in the same batch.
	if _, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpDelete, ID: 0},
		{Kind: violation.OpInsert, Values: row, At: at(0)},
		{Kind: violation.OpInsert, Values: row, At: at(10)},
	}); err != nil {
		t.Fatal(err)
	}
	if eng.Size() != 11 || eng.NextID() != 14 {
		t.Fatalf("size=%d nextID=%d after hole fills, want 11 and 14", eng.Size(), eng.NextID())
	}

	// Pinned and sequential inserts interleave within one batch: the
	// sequential one continues after the pin that precedes it.
	ids, err = eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: row, At: at(20)},
		{Kind: violation.OpInsert, Values: row},
	})
	if err != nil || ids[0] != 20 || ids[1] != 21 {
		t.Fatalf("mixed pin/sequential batch: ids=%v err=%v", ids, err)
	}
}

// TestInsertAtGapBound: a pin far past the current end is a validation
// error — the holes it would open are an allocation the op commands — and,
// on a durable engine, the rejected op never reaches the write-ahead log,
// so a restart replays cleanly instead of crash-looping on a poison record.
func TestInsertAtGapBound(t *testing.T) {
	eng := custEngine(t, true, violation.Options{}) // ids 0..7 live
	eng.SetMaxPinGap(100)
	at := func(id int) *int { return &id }
	row := []string{"01", "908", "7777777", "Pat", "Tree Ave.", "MH", "07974"}

	// end is 8: a pin at 108 opens exactly 100 holes and is the last legal one.
	if _, err := eng.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row, At: at(108)}}); err != nil {
		t.Fatalf("pin at the gap limit must be accepted: %v", err)
	}
	if _, err := eng.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row, At: at(210)}}); err == nil ||
		!strings.Contains(err.Error(), "unassigned ids past the current end") {
		t.Fatalf("pin past the gap limit: err = %v", err)
	}
	if eng.NextID() != 109 {
		t.Fatalf("rejected pin must not move NextID: %d", eng.NextID())
	}
	// The default bound refuses a pin one id wider than 2^20 outright.
	def := custEngine(t, true, violation.Options{})
	if _, err := def.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row, At: at(8 + violation.DefaultMaxPinGap + 1)}}); err == nil ||
		!strings.Contains(err.Error(), "unassigned ids past the current end") {
		t.Fatalf("pin 2^20+1 ids past the end: err = %v", err)
	}
	// An id the index members cannot hold — they store ids in 32-bit words —
	// fails validation, before the log is asked to append it.
	def.AttachWAL(failingLog{err: errors.New("the out-of-range pin reached the log")})
	if _, err := def.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row, At: at(math.MaxUint32 + 1)}}); err == nil ||
		!strings.Contains(err.Error(), "outside the 32-bit id space") {
		t.Fatalf("pin past the 32-bit id space: err = %v", err)
	}

	// Durable: the rejected pin is never logged, so the WAL replays clean.
	dir := t.TempDir()
	deng, st := durableEngine(t, dir, violation.StoreOptions{})
	atHuge := violation.DefaultMaxPinGap * 3
	if _, err := deng.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row, At: &atHuge}}); err == nil {
		t.Fatal("durable engine must refuse the oversized pin")
	}
	ok := 30
	if _, err := deng.ApplyBatch([]violation.Op{{Kind: violation.OpInsert, Values: row, At: &ok}}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	back := reload(t, dir)
	assertSameState(t, deng, back)
}

// TestInsertAtJSON: the wire codec round-trips "at" on inserts and rejects
// it on ops that do not assign ids.
func TestInsertAtJSON(t *testing.T) {
	seven := 7
	data, err := json.Marshal(violation.Op{Kind: violation.OpInsert, Values: []string{"x"}, At: &seven})
	if err != nil || !strings.Contains(string(data), `"at":7`) {
		t.Fatalf("marshal pinned insert: %s (err %v)", data, err)
	}
	var op violation.Op
	if err := json.Unmarshal(data, &op); err != nil || op.At == nil || *op.At != 7 {
		t.Fatalf("round trip pinned insert: %+v err=%v", op, err)
	}
	data, err = json.Marshal(violation.Op{Kind: violation.OpDelete, ID: 3, At: &seven})
	if err != nil || strings.Contains(string(data), `"at"`) {
		t.Fatalf("delete must marshal without at: %s (err %v)", data, err)
	}
	if err := json.Unmarshal([]byte(`{"op":"delete","id":3,"at":7}`), &op); err == nil {
		t.Fatal(`decoding "at" on a delete must fail`)
	}
	if err := json.Unmarshal([]byte(`{"op":"insert","values":["x"]}`), &op); err != nil || op.At != nil {
		t.Fatalf("plain insert must decode with nil At: %+v err=%v", op, err)
	}
}

// TestInsertAtReplay: pinned inserts are write-ahead logged and replayed to
// the same ids, holes included.
func TestInsertAtReplay(t *testing.T) {
	dir := t.TempDir()
	eng, st := durableEngine(t, dir, violation.StoreOptions{})
	at := 11
	if _, err := eng.ApplyBatch([]violation.Op{
		{Kind: violation.OpInsert, Values: []string{"44", "131", "5555555", "Amy", "High St.", "GLA", "EH4 1DT"}, At: &at},
		{Kind: violation.OpDelete, ID: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // crash: replay from the WAL tail
		t.Fatal(err)
	}
	back := reload(t, dir)
	assertSameState(t, eng, back)
	if back.NextID() != 12 {
		t.Fatalf("replayed NextID = %d, want 12", back.NextID())
	}
}

// TestStoreLock: a state directory held by a live store refuses a second
// open with a clear error, and releases on Close.
func TestStoreLock(t *testing.T) {
	dir := t.TempDir()
	st, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := violation.OpenStore(dir, violation.StoreOptions{}); err == nil ||
		!strings.Contains(err.Error(), "already in use by a live process") {
		t.Fatalf("second open of a held directory: err = %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := violation.OpenStore(dir, violation.StoreOptions{})
	if err != nil {
		t.Fatalf("open after Close must succeed: %v", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}
