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
// level: records at or below the folded sequence are dropped, the tail
// survives byte-exactly, and the reopened handle keeps appending cleanly.
func TestRewriteTailLocked(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, v := range []string{"a", "b", "c"} { // seq 1..3
		if err := st.Append([]Op{{Kind: OpInsert, Values: []string{v}}}); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	err = st.rewriteTailLocked(2) // fold seq 1-2, keep seq 3
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Pending(); got != 1 {
		t.Fatalf("pending = %d after tail rewrite, want 1", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
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
		st.mu.Lock()
		next, last := st.snapSeq+1, st.seq
		st.mu.Unlock()
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
