package violation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/cfd"
	"repro/rules"
)

// TestRewriteTailLocked exercises the busy-compaction path at the store
// level: the records before the captured offset are dropped, the tail
// survives byte-exactly — the old file's suffix from that offset — the backlog
// is what was appended since the capture, and the reopened handle keeps
// appending cleanly.
func TestRewriteTailLocked(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var off int64
	var backlog int
	for _, v := range []string{"a", "b", "c"} { // seq 1..3
		if v == "c" { // the capture of a compaction folding seq 1-2
			off, backlog = st.walOff, st.pending
		}
		if err := st.Append([]Op{{Kind: OpInsert, Values: []string{v}}}); err != nil {
			t.Fatal(err)
		}
	}
	walPath := filepath.Join(dir, walName)
	before, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	err = st.rewriteTailLocked(off, backlog)
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Pending(); got != 1 {
		t.Fatalf("pending = %d after tail rewrite, want 1", got)
	}
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, before[off:]) {
		t.Fatalf("rewritten wal = %q, want the old file's suffix %q", data, before[off:])
	}
	if got := strings.TrimSpace(string(data)); got != `{"seq":3,"ops":[{"op":"insert","values":["c"]}]}` {
		t.Fatalf("rewritten wal = %q", got)
	}
	// Appends continue on the swapped-in file with the right sequence.
	if err := st.Append([]Op{{Kind: OpDelete, ID: 0}}); err != nil { // seq 4
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // release the directory lock for st2
		t.Fatal(err)
	}
	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.seq != 4 || st2.pending != 2 {
		t.Fatalf("reopened store: seq=%d pending=%d, want 4 and 2", st2.seq, st2.pending)
	}
}

// TestCompactRacingAppendsKeepsTailBytes races compactions against a writer
// until several of them had to rewrite the log down to its unfolded tail
// (appends landed while the snapshot was being written), and checks after each
// rewrite that the surviving tail is, byte for byte, the lines the commits
// appended — every record above the snapshot's sequence, in order, none
// altered — and at the end that a reload reproduces an engine that applied the
// same commits without a store.
func TestCompactRacingAppendsKeepsTailBytes(t *testing.T) {
	dir := t.TempDir()
	attrs := []string{"A", "B"}
	sets := []*rules.Set{rules.Of(cfd.NewFD([]string{"A"}, "B")), rules.Of()}
	build := func() *Engine {
		e, err := New(attrs, sets[0], Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	eng, oracle := build(), build()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(st)

	// Values whose JSON form has choices (escapes, multi-byte runes): a tail
	// that was decoded and encoded again, not copied, could differ on them.
	tricky := []string{"plain", "<a&b>", "é\u2028x", "\"q\"", "\x00\t", "\\u0041", "💥"}
	var (
		gate     sync.Mutex // held by the writer per commit, by the checker per read of the log
		appended = map[uint64][]byte{}
		rewrites atomic.Int32
		done     = make(chan error, 1)
	)
	commit := func(i int) error {
		gate.Lock()
		defer gate.Unlock()
		rec := walRecord{}
		if i%40 == 39 {
			rec.Rules = sets[(i/40+1)%2]
			for _, e := range []*Engine{eng, oracle} {
				if _, err := e.SwapRules(context.Background(), rec.Rules); err != nil {
					return err
				}
			}
		} else {
			rec.Ops = []Op{{Kind: OpInsert, Values: []string{fmt.Sprint(i % 5), tricky[i%len(tricky)]}}}
			if i%3 == 2 {
				rec.Ops = append(rec.Ops, Op{Kind: OpDelete, ID: i / 2})
			}
			for _, e := range []*Engine{eng, oracle} {
				if _, err := e.ApplyBatch(rec.Ops); err != nil {
					return err
				}
			}
		}
		rec.Seq = st.Seq()
		line, err := json.Marshal(rec)
		appended[rec.Seq] = append(line, '\n')
		return err
	}
	go func() {
		for i := 0; i < 20000 && rewrites.Load() < 3; i++ {
			if err := commit(i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	walPath := filepath.Join(dir, walName)
	checkTail := func() {
		gate.Lock()
		defer gate.Unlock()
		data, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		snapshot, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		file, err := decodeSnapshotFile(snapshot)
		if err != nil {
			t.Fatal(err)
		}
		next, last := file.WalSeq+1, st.Seq()
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			if !bytes.Equal(line, appended[next]) {
				t.Fatalf("record %d of the rewritten tail\n got: %q\nwant: %q", next, line, appended[next])
			}
			next++
		}
		if next != last+1 {
			t.Fatalf("rewritten tail ends at record %d, the store is at %d", next-1, last)
		}
	}
	for running := true; running; {
		before, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Compact(eng); err != nil {
			t.Fatal(err)
		}
		after, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(before, after) { // a rewrite renames a new file into place
			checkTail()
			rewrites.Add(1)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
	}
	if rewrites.Load() == 0 {
		t.Fatal("no compaction ever raced an append")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded, found, err := st2.Load(Options{})
	if err != nil || !found {
		t.Fatalf("reload: found=%v err=%v", found, err)
	}
	got, want := loaded.Report(), oracle.Report()
	if !reflect.DeepEqual(got.Violations, want.Violations) || !reflect.DeepEqual(got.DirtyTuples, want.DirtyTuples) {
		t.Fatalf("reloaded report\n got: %+v\nwant: %+v", got, want)
	}
	gotTuples, _, _ := loaded.Tuples(0, 0)
	wantTuples, _, _ := oracle.Tuples(0, 0)
	if !reflect.DeepEqual(gotTuples, wantTuples) || !reflect.DeepEqual(loaded.RuleStats(), oracle.RuleStats()) {
		t.Fatal("reloaded tuples or rule statistics differ from the oracle's")
	}
}

// TestStoreFailStop takes the WAL's descriptor away under a syncing store:
// the commit that hits the error fails, every later commit, rule swap and
// compaction returns the same latched error without touching the files, reads
// keep being served, and a fresh OpenStore + Load restores exactly what was
// acknowledged.
func TestStoreFailStop(t *testing.T) {
	dir := t.TempDir()
	set := rules.Of(cfd.NewFD([]string{"A"}, "B"))
	build := func() *Engine {
		e, err := New([]string{"A", "B"}, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	eng, acked := build(), build()
	st, err := OpenStore(dir, StoreOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(st)
	for i := 0; i < 5; i++ {
		ops := []Op{{Kind: OpInsert, Values: []string{fmt.Sprint(i % 2), fmt.Sprint(i)}}}
		for _, e := range []*Engine{eng, acked} {
			if _, err := e.ApplyBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Failed(); err != nil {
		t.Fatalf("healthy store reports %v", err)
	}
	files := func() (wal, snap []byte) {
		for name, into := range map[string]*[]byte{walName: &wal, snapshotName: &snap} {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			*into = data
		}
		return wal, snap
	}
	walBefore, snapBefore := files()

	st.mu.Lock()
	st.wal.Close()
	st.mu.Unlock()
	lost := []Op{{Kind: OpInsert, Values: []string{"0", "lost"}}}
	_, first := eng.ApplyBatch(lost)
	if !errors.Is(first, ErrWAL) || !errors.Is(first, os.ErrClosed) {
		t.Fatalf("commit on a closed WAL: err = %v, want ErrWAL wrapping os.ErrClosed", first)
	}
	latched := st.Failed()
	if latched == nil || !errors.Is(first, latched) {
		t.Fatalf("Failed() = %v after %v", latched, first)
	}
	if _, err := eng.ApplyBatch(lost); !errors.Is(err, latched) {
		t.Fatalf("second commit: err = %v, want the latched %v", err, latched)
	}
	if _, err := eng.SwapRules(context.Background(), rules.Of()); !errors.Is(err, latched) {
		t.Fatalf("rule swap: err = %v, want the latched %v", err, latched)
	}
	if err := st.Compact(eng); !errors.Is(err, latched) {
		t.Fatalf("compaction: err = %v, want the latched %v", err, latched)
	}
	if walAfter, snapAfter := files(); !bytes.Equal(walAfter, walBefore) || !bytes.Equal(snapAfter, snapBefore) {
		t.Fatalf("a failed store touched its files: wal %d → %d bytes, snapshot %d → %d", len(walBefore), len(walAfter), len(snapBefore), len(snapAfter))
	}
	same := func(what string, got *Engine) {
		t.Helper()
		g, w := got.Report(), acked.Report()
		gotTuples, _, _ := got.Tuples(0, 0)
		wantTuples, _, _ := acked.Tuples(0, 0)
		if !reflect.DeepEqual(g.Violations, w.Violations) || !reflect.DeepEqual(gotTuples, wantTuples) || got.RulesVersion() != acked.RulesVersion() {
			t.Fatalf("%s is not the acknowledged prefix:\n got %+v %v\nwant %+v %v", what, g.Violations, gotTuples, w.Violations, wantTuples)
		}
	}
	same("the failed store's engine", eng) // nothing refused was applied, reads go on

	st.Close() // the descriptor is gone already; this releases the directory lock
	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	loaded, found, err := st2.Load(Options{})
	if err != nil || !found {
		t.Fatalf("reload: found=%v err=%v", found, err)
	}
	same("the reloaded engine", loaded)
	if st2.Failed() != nil || st2.Append(lost) != nil {
		t.Fatal("a fresh store over the same directory must commit again")
	}
}

// TestOpJSONRequiresID: the wire decoder rejects delete/update ops without
// an explicit id (the zero id is a real tuple) and keeps insert records free
// of a spurious one.
func TestOpJSONRequiresID(t *testing.T) {
	var op Op
	if err := op.UnmarshalJSON([]byte(`{"op":"delete"}`)); err == nil {
		t.Fatal("delete without id must fail to decode")
	}
	if err := op.UnmarshalJSON([]byte(`{"op":"update","values":["x"]}`)); err == nil {
		t.Fatal("update without id must fail to decode")
	}
	if err := op.UnmarshalJSON([]byte(`{"op":"delete","id":0}`)); err != nil || op.ID != 0 {
		t.Fatalf("explicit id 0 must decode: op=%+v err=%v", op, err)
	}
	if err := op.UnmarshalJSON([]byte(`{"op":"insert","values":["x"]}`)); err != nil {
		t.Fatalf("insert without id must decode: %v", err)
	}
	data, err := Op{Kind: OpInsert, Values: []string{"x"}}.MarshalJSON()
	if err != nil || strings.Contains(string(data), `"id"`) {
		t.Fatalf("insert must marshal without id: %s (err %v)", data, err)
	}
	data, err = Op{Kind: OpDelete}.MarshalJSON()
	if err != nil || !strings.Contains(string(data), `"id":0`) {
		t.Fatalf("delete of tuple 0 must marshal its id: %s (err %v)", data, err)
	}
}

// parentOp and parentRecord are the log's encoders as they were before
// appendOp: json.Marshal all the way down, an opJSON per op. They are the
// reference the one-pass encoders are held to, and they write the state
// directory of TestParentWrittenStateLoads.
type parentOp Op

func (o parentOp) MarshalJSON() ([]byte, error) {
	raw := opJSON{Kind: o.Kind, Values: o.Values}
	if o.Kind == OpDelete || o.Kind == OpUpdate {
		raw.ID = &o.ID
	}
	if o.Kind == OpInsert && o.At != nil {
		raw.At = o.At
	}
	return json.Marshal(raw)
}

type parentRecord struct {
	Seq   uint64     `json:"seq"`
	Ops   []parentOp `json:"ops,omitempty"`
	Rules *rules.Set `json:"rules,omitempty"`
}

func parentLine(tb testing.TB, rec walRecord) []byte {
	tb.Helper()
	ref := parentRecord{Seq: rec.Seq, Rules: rec.Rules}
	for _, op := range rec.Ops {
		ref.Ops = append(ref.Ops, parentOp(op))
	}
	if rec.Ops != nil && ref.Ops == nil {
		ref.Ops = []parentOp{}
	}
	line, err := json.Marshal(ref)
	if err != nil {
		tb.Fatal(err)
	}
	return append(line, '\n')
}

// hardValues are strings whose JSON form has choices or escapes: quotes and
// backslashes, the HTML-safe set, control characters, the line separators,
// non-ASCII text, invalid UTF-8.
var hardValues = []string{"plain", "", `"q"\`, "<a&b>", "\x00\t\n\x1f\x7f", "\u2028x\u2029", "é 日本語 💥", "\xff\xfe\xe2\x80", `\u0041`}

// wireRecords is a log's worth of records: every op kind, a pinned insert,
// ops that carry fields their kind does not write, no ops at all, a rule swap.
func wireRecords() []walRecord {
	at := 12
	return []walRecord{
		{Seq: 1, Ops: []Op{{Kind: OpInsert, Values: hardValues}}},
		{Seq: 2, Ops: []Op{{Kind: OpInsert, Values: hardValues[:2], At: &at}, {Kind: OpUpdate, ID: 12, Values: hardValues[2:4]}, {Kind: OpDelete, ID: 0}}},
		{Seq: 3, Ops: []Op{{Kind: OpInsert, ID: 9}, {Kind: OpDelete, ID: 1, Values: []string{}, At: &at}, {Kind: OpKind(hardValues[3])}}},
		{Seq: 1<<64 - 1, Ops: []Op{}},
		{Seq: 5},
		{Seq: 6, Rules: rules.Of(cfd.NewFD([]string{"A"}, "B"))},
	}
}

// TestWALRecordWireForm: the one-pass encoders write the bytes json.Marshal
// wrote — a record's line, and an op on its own as a coordinator's batch body
// carries it.
func TestWALRecordWireForm(t *testing.T) {
	for _, rec := range wireRecords() {
		got, err := rec.appendLine([]byte("kept"))
		if err != nil {
			t.Fatal(err)
		}
		if want := append([]byte("kept"), parentLine(t, rec)...); !bytes.Equal(got, want) {
			t.Errorf("record %d\n got %s\nwant %s", rec.Seq, got, want)
		}
		for _, op := range rec.Ops {
			got, _ := json.Marshal(op)
			if want, _ := json.Marshal(parentOp(op)); !bytes.Equal(got, want) {
				t.Errorf("op\n got %s\nwant %s", got, want)
			}
		}
	}
}

// TestOwnEncodersStayPlain: nothing this package writes — a batch record, a
// snapshot, whatever the values hold — takes the hand-over to encoding/json,
// so one "&" in the data cannot quietly turn a recovery back into the
// reflecting decode; and what the one-pass readers return is what
// encoding/json returns.
func TestOwnEncodersStayPlain(t *testing.T) {
	for _, rec := range wireRecords() {
		line, err := rec.appendLine(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, plain := readWALRecord(line)
		if plain != (rec.Rules == nil) {
			t.Fatalf("record %s: plain = %v", line, plain)
		}
		var want walRecord
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if plain && !reflect.DeepEqual(got, want) {
			t.Errorf("record %s\n read %+v\n want %+v", line, got, want)
		}
	}

	set := rules.Of(cfd.NewFD([]string{"A"}, "B"), cfd.CFD{LHS: []string{"A"}, RHS: "B", LHSPattern: []string{"<&>"}, RHSPattern: "\u2028"})
	eng, err := New([]string{"A", "B"}, set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range hardValues {
		if _, err := eng.Insert(v, hardValues[(i+1)%len(hardValues)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Delete(1); err != nil {
		t.Fatal(err)
	}
	data := encodeSnapshot(t, eng.captureSnapshot(func() uint64 { return 1<<64 - 1 }))
	file, plain := readSnapshotFile(append(data, '\n'))
	if !plain {
		t.Fatalf("snapshot %s is not plain", data)
	}
	sameSnapshotDecode(t, data, file, file.validate())
}

// TestDecodedValuesOwnTheirMemory: a value that outlives its request — the
// dictionaries never forget one — does not alias the buffer it was decoded
// from, so it cannot keep a batch body or the snapshot text alive. The buffers
// are overwritten after decoding; the engine must not notice.
func TestDecodedValuesOwnTheirMemory(t *testing.T) {
	scribble := func(buf []byte) {
		for i := range buf {
			buf[i] = '#'
		}
	}
	eng, err := New([]string{"A", "B"}, rules.Of(cfd.NewFD([]string{"A"}, "B")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	line := []byte(`{"seq":1,"ops":[{"op":"insert","values":["direct","esc\taped"]},{"op":"insert","values":["direct","other"]}]}` + "\n")
	rec, plain := readWALRecord(line)
	if !plain {
		t.Fatal("the record is not plain")
	}
	if _, err := eng.ApplyBatch(rec.Ops); err != nil {
		t.Fatal(err)
	}
	scribble(line)
	want := []Tuple{{ID: 0, Values: []string{"direct", "esc\taped"}}, {ID: 1, Values: []string{"direct", "other"}}}
	if got, _, _ := eng.Tuples(0, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples changed with the decoded buffer: %v", got)
	}

	data := encodeSnapshot(t, eng.captureSnapshot(nil))
	file, err := decodeSnapshotFile(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := New(file.Attributes, file.RuleSet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.restoreSnapshot(file); err != nil {
		t.Fatal(err)
	}
	scribble(data)
	if got, _, _ := restored.Tuples(0, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored tuples changed with the snapshot text: %v", got)
	}
	if !reflect.DeepEqual(restored.schema.Names(), eng.schema.Names()) || restored.RulesVersion() != eng.RulesVersion() {
		t.Fatal("restored schema or rules changed with the snapshot text")
	}
}

// TestParentWrittenStateLoads: a state directory written by the code this one
// replaced — json.Marshal for every record and for the snapshot — is, byte
// for byte, the one the one-pass encoders write for the same commits, and
// loads to the same report, tuples and rules version; so a directory moves
// between the two builds in either direction.
func TestParentWrittenStateLoads(t *testing.T) {
	attrs := []string{"A", "B"}
	sets := []*rules.Set{rules.Of(cfd.NewFD([]string{"A"}, "B")), rules.Of(cfd.NewFD([]string{"B"}, "A"))}
	at := 40
	commits := []walRecord{
		{Ops: []Op{{Kind: OpInsert, Values: []string{"x", hardValues[3]}}, {Kind: OpInsert, Values: []string{"x", hardValues[4]}}}},
		{Ops: []Op{{Kind: OpInsert, Values: []string{"y", hardValues[5]}, At: &at}}},
		{Rules: sets[1]},
		{Ops: []Op{{Kind: OpUpdate, ID: 1, Values: []string{hardValues[8], hardValues[3]}}, {Kind: OpDelete, ID: 0}}},
	}
	seed := [][]string{{"x", "1"}, {"x", "2"}, {hardValues[2], hardValues[6]}}

	newDir, parentDir := t.TempDir(), t.TempDir()
	eng, err := New(attrs, sets[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range seed {
		if _, err := eng.Insert(row...); err != nil {
			t.Fatal(err)
		}
	}
	st, err := OpenStore(newDir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	snapshot, err := json.Marshal(eng.captureSnapshot(nil))
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(st)
	var wal []byte
	for i, rec := range commits {
		if rec.Rules != nil {
			_, err = eng.SwapRules(context.Background(), rec.Rules)
		} else {
			_, err = eng.ApplyBatch(rec.Ops)
		}
		if err != nil {
			t.Fatal(err)
		}
		rec.Seq = uint64(i + 1)
		wal = append(wal, parentLine(t, rec)...)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{snapshotName: append(snapshot, '\n'), walName: wal} {
		if err := os.WriteFile(filepath.Join(parentDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(filepath.Join(newDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written, data) {
			t.Errorf("%s\n this build: %s\n the parent: %s", name, written, data)
		}
	}
	load := func(dir string) *Engine {
		st, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		loaded, found, err := st.Load(Options{})
		if err != nil || !found {
			t.Fatalf("loading %s: found=%v err=%v", dir, found, err)
		}
		return loaded
	}
	for _, loaded := range []*Engine{load(newDir), load(parentDir)} {
		got, _, _ := loaded.Tuples(0, 0)
		want, _, _ := eng.Tuples(0, 0)
		if !reflect.DeepEqual(loaded.Report(), eng.Report()) || !reflect.DeepEqual(got, want) || loaded.RulesVersion() != eng.RulesVersion() {
			t.Fatalf("loaded state differs from the engine that wrote it:\n got %+v %v\nwant %+v %v", loaded.Report(), got, eng.Report(), want)
		}
	}
}

// TestLoadConsumesTheSnapshot: the store keeps no second copy of the data —
// Load takes the snapshot and the log records OpenStore decoded with it, a
// compaction drops them and records only its sequence number — so a second
// Load, or one after a Compact, is refused and says what to do instead.
func TestLoadConsumesTheSnapshot(t *testing.T) {
	dir := t.TempDir()
	eng, err := New([]string{"A"}, rules.Of(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(eng); err != nil {
		t.Fatal(err)
	}
	if st.opened != nil || st.tail != nil {
		t.Fatal("a compaction left decoded state in the store")
	}
	if err := st.Append([]Op{{Kind: OpInsert, Values: []string{"x"}}}); err != nil { // seq 1, unfolded
		t.Fatal(err)
	}
	refused := func(what string) {
		t.Helper()
		if _, _, err := st.Load(Options{}); err == nil || !strings.Contains(err.Error(), "reopen") {
			t.Fatalf("%s: err = %v", what, err)
		}
	}
	refused("Load after Compact")
	reopen := func() {
		t.Helper()
		st.Close()
		if st, err = OpenStore(dir, StoreOptions{}); err != nil {
			t.Fatal(err)
		}
		if len(st.tail) != 1 || st.tail[0].Seq != 1 {
			t.Fatalf("open kept %+v, want record 1", st.tail)
		}
	}
	reopen()
	loaded, found, err := st.Load(Options{})
	if err != nil || !found || st.opened != nil || st.tail != nil {
		t.Fatalf("first Load: found=%v err=%v, snapshot or records still held: %v %v", found, err, st.opened != nil, st.tail)
	}
	if loaded.Size() != 1 {
		t.Fatalf("loaded %d tuples, want the replayed 1", loaded.Size())
	}
	refused("second Load")
	reopen()
	if err := st.Compact(loaded); err != nil {
		t.Fatal(err)
	}
	if st.opened != nil || st.tail != nil {
		t.Fatal("a compaction left decoded state in the store")
	}
	refused("Load after Compact of a reopened store")
	st.Close()
}
