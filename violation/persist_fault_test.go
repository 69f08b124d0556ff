package violation

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"repro/cfd"
	"repro/rules"
)

// faultDisk is the real disk with one fault armed: the nth call (from 1) of
// kind call fails with err. A failing write first lands the first short bytes
// of its buffer, as a full disk or an interrupted write does. Unarmed, and
// after the fault has fired, it is osDisk.
type faultDisk struct {
	osDisk
	call  string // open, createTemp, write, sync, truncate, rename, syncDir
	nth   int
	short int
	err   error
	calls map[string]int
}

// arm schedules the next fault, counting calls from now.
func (d *faultDisk) arm(call string, nth, short int, err error) {
	d.call, d.nth, d.short, d.err, d.calls = call, nth, short, err, map[string]int{}
}

func (d *faultDisk) fires(call string) bool {
	if d.calls == nil {
		return false
	}
	d.calls[call]++
	return call == d.call && d.calls[call] == d.nth
}

func (d *faultDisk) open(name string, flag int) (*os.File, error) {
	if d.fires("open") {
		return nil, d.err
	}
	return d.osDisk.open(name, flag)
}

func (d *faultDisk) createTemp(dir, pattern string) (*os.File, error) {
	if d.fires("createTemp") {
		return nil, d.err
	}
	return d.osDisk.createTemp(dir, pattern)
}

func (d *faultDisk) write(f *os.File, p []byte) (int, error) {
	if d.fires("write") {
		n, _ := f.Write(p[:min(d.short, len(p))])
		return n, d.err
	}
	return d.osDisk.write(f, p)
}

func (d *faultDisk) sync(f *os.File) error {
	if d.fires("sync") {
		return d.err
	}
	return d.osDisk.sync(f)
}

func (d *faultDisk) truncate(f *os.File, size int64) error {
	if d.fires("truncate") {
		return d.err
	}
	return d.osDisk.truncate(f, size)
}

func (d *faultDisk) rename(oldpath, newpath string) error {
	if d.fires("rename") {
		return d.err
	}
	return d.osDisk.rename(oldpath, newpath)
}

func (d *faultDisk) syncDir(dir string) error {
	if d.fires("syncDir") {
		return d.err
	}
	return d.osDisk.syncDir(dir)
}

// faultRig is a syncing store over a faultDisk with an engine attached, and
// acked: an engine without a store that has applied exactly the commits the
// store acknowledged. Its rule makes every second tuple a violation, so a
// record too many or too few shows in the report as well as in the tuples.
type faultRig struct {
	t          *testing.T
	dir        string
	disk       *faultDisk
	st         *Store
	eng, acked *Engine
	next       int
}

func newFaultRig(t *testing.T) *faultRig {
	t.Helper()
	rig := &faultRig{t: t, dir: t.TempDir(), disk: &faultDisk{}}
	build := func() *Engine {
		e, err := New([]string{"A", "B"}, rules.Of(cfd.NewFD([]string{"A"}, "B")), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rig.eng, rig.acked = build(), build()
	st, err := openStore(rig.dir, StoreOptions{Sync: true}, rig.disk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rig.st = st
	if err := st.Compact(rig.eng); err != nil {
		t.Fatal(err)
	}
	rig.eng.AttachWAL(st)
	for i := 0; i < 4; i++ {
		if err := rig.commit(); err != nil {
			t.Fatal(err)
		}
	}
	return rig
}

// commit applies the next batch — an insert, and from the second on a delete —
// through the store, and to acked once the store has acknowledged it.
func (rig *faultRig) commit() error {
	ops := []Op{{Kind: OpInsert, Values: []string{fmt.Sprint(rig.next % 2), fmt.Sprint(rig.next)}}}
	if rig.next > 0 {
		ops = append(ops, Op{Kind: OpDelete, ID: rig.next - 1})
	}
	rig.next++
	if _, err := rig.eng.ApplyBatch(ops); err != nil {
		return err
	}
	if _, err := rig.acked.ApplyBatch(ops); err != nil {
		rig.t.Fatal(err)
	}
	return nil
}

func (rig *faultRig) same(what string, got *Engine) {
	rig.t.Helper()
	gotTuples, _, _ := got.Tuples(0, 0)
	wantTuples, _, _ := rig.acked.Tuples(0, 0)
	g, w := got.Report(), rig.acked.Report()
	if !reflect.DeepEqual(g.Violations, w.Violations) || !reflect.DeepEqual(gotTuples, wantTuples) || got.NextID() != rig.acked.NextID() || got.RulesVersion() != rig.acked.RulesVersion() {
		rig.t.Fatalf("%s is not the acknowledged prefix:\n got %+v %v\nwant %+v %v", what, g.Violations, gotTuples, w.Violations, wantTuples)
	}
}

// reload closes the store and checks that a fresh OpenStore + Load over the
// real disk restores exactly the acknowledged commits, with no temporary file
// left behind.
func (rig *faultRig) reload() {
	rig.t.Helper()
	rig.st.Close()
	entries, err := os.ReadDir(rig.dir)
	if err != nil {
		rig.t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			rig.t.Errorf("%s left behind", e.Name())
		}
	}
	st, err := OpenStore(rig.dir, StoreOptions{})
	if err != nil {
		rig.t.Fatal(err)
	}
	defer st.Close()
	loaded, found, err := st.Load(Options{})
	if err != nil || !found {
		rig.t.Fatalf("reload: found=%v err=%v", found, err)
	}
	rig.same("the reloaded engine", loaded)
}

func (rig *faultRig) walBytes() []byte {
	data, err := os.ReadFile(filepath.Join(rig.dir, walName))
	if err != nil {
		rig.t.Fatal(err)
	}
	return data
}

// TestCommitFaults injects the failures a commit can meet — the fsync that
// fails after its write went through, which is the case the latch exists for,
// a short write, a full disk halfway through a record — and holds the store to
// its contract: the commit is refused and not applied, the record is cut off
// the log again, every later commit, rule swap and compaction gets the latched
// error (cfdserve turns that into a 503 /v1/health), and a restart restores
// the acknowledged commits — never a record more, none less.
func TestCommitFaults(t *testing.T) {
	injected := errors.New("injected fault")
	for _, tc := range []struct {
		name  string
		call  string
		short int
		err   error
	}{
		{"fsync fails after the write", "sync", 0, injected},
		{"short write", "write", 11, io.ErrShortWrite},
		{"nothing written", "write", 0, injected},
		{"ENOSPC mid-append", "write", 30, &os.PathError{Op: "write", Path: walName, Err: syscall.ENOSPC}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newFaultRig(t)
			before := rig.walBytes()
			rig.disk.arm(tc.call, 1, tc.short, tc.err)
			first := rig.commit()
			if !errors.Is(first, ErrWAL) || !errors.Is(first, tc.err) {
				t.Fatalf("commit: err = %v, want ErrWAL wrapping %v", first, tc.err)
			}
			latched := rig.st.Failed()
			if latched == nil || !errors.Is(first, latched) {
				t.Fatalf("Failed() = %v after %v", latched, first)
			}
			if after := rig.walBytes(); !bytes.Equal(after, before) {
				t.Fatalf("the refused record is still in the log:\n%s", after[len(before):])
			}
			if err := rig.commit(); !errors.Is(err, latched) {
				t.Fatalf("second commit: err = %v, want the latched %v", err, latched)
			}
			if _, err := rig.eng.SwapRules(context.Background(), rules.Of()); !errors.Is(err, latched) {
				t.Fatalf("rule swap: err = %v, want the latched %v", err, latched)
			}
			if err := rig.st.Compact(rig.eng); !errors.Is(err, latched) {
				t.Fatalf("compaction: err = %v, want the latched %v", err, latched)
			}
			if after := rig.walBytes(); !bytes.Equal(after, before) {
				t.Fatal("a failed store wrote to its log")
			}
			rig.same("the failed store's engine", rig.eng)
			rig.reload()
		})
	}
}

// TestCommitFaultTornTail: when the record cannot even be cut off again — the
// truncate fails too — a torn one stays in the log, and recovery drops it.
func TestCommitFaultTornTail(t *testing.T) {
	rig := newFaultRig(t)
	before := rig.walBytes()
	// Two faults in a row: the write, then the truncate that would undo it.
	rig.disk.arm("write", 1, 25, syscall.ENOSPC)
	rig.st.fs = tornDisk{rig.disk}
	if err := rig.commit(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("commit: err = %v, want ENOSPC", err)
	}
	if after := rig.walBytes(); len(after) != len(before)+25 {
		t.Fatalf("log grew by %d bytes, want the 25 of the torn record", len(after)-len(before))
	}
	rig.same("the failed store's engine", rig.eng)
	rig.reload()
}

// tornDisk fails every truncate on top of what the faultDisk under it does.
type tornDisk struct{ *faultDisk }

func (d tornDisk) truncate(*os.File, int64) error { return errors.New("injected truncate fault") }

// TestCompactionFaults fails each step of writing the snapshot in turn. Up to
// and including the directory fsync nothing has touched the log, so the store
// stays usable, goes on committing, and a later compaction succeeds; a log that
// cannot be truncated afterwards fails the store. Either way a restart finds
// a snapshot — the old one or the new one — and a log that together are the
// acknowledged commits.
func TestCompactionFaults(t *testing.T) {
	injected := errors.New("injected fault")
	for _, tc := range []struct {
		name   string
		call   string
		nth    int
		failed bool // the fault fails the store
	}{
		{"temp file cannot be created", "createTemp", 1, false},
		{"snapshot write is short", "write", 1, false},
		{"snapshot fsync fails", "sync", 1, false},
		{"rename fails", "rename", 1, false},
		{"directory fsync fails", "syncDir", 1, false},
		{"log cannot be truncated", "truncate", 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newFaultRig(t)
			rig.disk.arm(tc.call, tc.nth, 100, injected)
			if err := rig.st.Compact(rig.eng); !errors.Is(err, injected) {
				t.Fatalf("compaction: err = %v, want the injected fault", err)
			}
			if failed := rig.st.Failed() != nil; failed != tc.failed {
				t.Fatalf("Failed() = %v", rig.st.Failed())
			}
			if !tc.failed {
				if err := rig.commit(); err != nil {
					t.Fatalf("commit after a failed compaction: %v", err)
				}
				if err := rig.st.Compact(rig.eng); err != nil {
					t.Fatalf("second compaction: %v", err)
				}
				if err := rig.commit(); err != nil {
					t.Fatal(err)
				}
			}
			rig.same("the store's engine", rig.eng)
			rig.reload()
		})
	}
}

// TestTailRewriteFaults fails each step of rewriting a busy log down to its
// unfolded tail. Before the rename the full log is still the directory's and
// the store goes on appending to it; after it the handle the store holds is a
// file no restart would read, so the store must fail rather than acknowledge
// commits into it.
func TestTailRewriteFaults(t *testing.T) {
	injected := errors.New("injected fault")
	for _, tc := range []struct {
		name   string
		call   string
		failed bool
	}{
		{"temp file cannot be created", "createTemp", false},
		{"tail write is short", "write", false},
		{"tail fsync fails", "sync", false},
		{"rename fails", "rename", false},
		{"directory fsync fails after the rename", "syncDir", true},
		{"new log cannot be opened", "open", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newFaultRig(t)
			// The state a busy compaction is in when it turns to the log: the
			// new snapshot is in place, commits have landed since its capture.
			folded := rig.st.Seq()
			data := encodeSnapshot(t, rig.eng.captureSnapshot(func() uint64 { return folded }))
			if err := os.WriteFile(filepath.Join(rig.dir, snapshotName), append(data, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := rig.commit(); err != nil {
					t.Fatal(err)
				}
			}
			rig.disk.arm(tc.call, 1, 10, injected)
			rig.st.mu.Lock()
			rig.st.snapSeq = folded
			err := rig.st.rewriteTailLocked(folded)
			rig.st.mu.Unlock()
			if !errors.Is(err, injected) {
				t.Fatalf("tail rewrite: err = %v, want the injected fault", err)
			}
			if failed := rig.st.Failed() != nil; failed != tc.failed {
				t.Fatalf("Failed() = %v", rig.st.Failed())
			}
			if err := rig.commit(); (err != nil) != tc.failed {
				t.Fatalf("commit after the failed rewrite: %v", err)
			}
			rig.same("the store's engine", rig.eng)
			rig.reload()
		})
	}
}

// TestOpenFaults: a log that cannot be opened, or whose torn tail cannot be
// cut off, fails OpenStore and leaves the directory unlocked.
func TestOpenFaults(t *testing.T) {
	injected := errors.New("injected fault")
	for _, call := range []string{"open", "truncate"} {
		dir := t.TempDir()
		disk := &faultDisk{}
		disk.arm(call, 1, 0, injected)
		if _, err := openStore(dir, StoreOptions{}, disk); !errors.Is(err, injected) {
			t.Fatalf("%s fault: err = %v", call, err)
		}
		st, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("reopening after a %s fault: %v", call, err)
		}
		st.Close()
	}
}
