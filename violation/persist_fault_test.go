package violation

import (
	"bytes"
	"cmp"
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

// fault is one failure a faultDisk has scheduled for a call kind: the nth call
// of the kind (from 1) fails with err — a failing write first landing a prefix
// of its buffer, short bytes but never all of them, as a full disk or an
// interrupted write does — or, with a nil err, does its work and the process
// crashes right after it: from then on no call reaches the disk until the
// store is opened again (restart).
type fault struct {
	nth   int
	short int
	err   error
}

// faultKinds are the calls of the disk seam, in the order a schedule's bytes
// describe them.
var faultKinds = []string{"open", "createTemp", "write", "sync", "truncate", "rename", "syncDir"}

var (
	errInjected = errors.New("injected fault")
	errCrashed  = errors.New("injected crash: the process is gone")
)

// schedule decodes a fault schedule: three bytes per call kind, in faultKinds
// order — which call fails (counted across the run; a commit writes once and
// syncs once, a compaction uses each kind about once, an open opens and
// truncates once), how (an error; for a write, ENOSPC after landing as many
// bytes as the third byte says; a crash after the call; or not at all), and
// that byte. A kind the bytes run out before is never failed.
func schedule(plan []byte) map[string]fault {
	calls := map[string]int{"open": 3, "createTemp": 6, "write": 60, "sync": 60, "truncate": 8, "rename": 6, "syncDir": 6}
	out := make(map[string]fault)
	for i, kind := range faultKinds {
		if len(plan) < 3*(i+1) {
			break
		}
		b := plan[3*i : 3*i+3]
		f := fault{nth: 1 + int(b[0])%calls[kind], err: errInjected}
		switch b[1] % 4 {
		case 1:
			if kind == "write" {
				f.short, f.err = int(b[2]), &os.PathError{Op: "write", Path: walName, Err: syscall.ENOSPC}
			}
		case 2:
			f.err = nil
		case 3:
			continue
		}
		out[kind] = f
	}
	return out
}

// faultDisk is the real disk under a schedule of faults, at most one per call
// kind; every other call is osDisk's. For the schedule oracle it also counts
// writes that landed their whole buffer, truncations that took effect and
// truncations a fault refused.
type faultDisk struct {
	osDisk
	plan                            map[string]fault
	calls                           map[string]int
	crashed                         bool
	fired                           []string // the faults that fired, in order
	wholeWrites, truncates, refused int
}

// arm schedules a single fault, counting calls from now.
func (d *faultDisk) arm(call string, nth, short int, err error) {
	d.plan, d.calls = map[string]fault{call: {nth: nth, short: short, err: err}}, map[string]int{}
}

// at counts one call of the kind and returns the fault it meets, if any.
func (d *faultDisk) at(call string) (fault, bool) {
	if d.calls == nil {
		return fault{}, false
	}
	d.calls[call]++
	f, ok := d.plan[call]
	if !ok || d.calls[call] != f.nth {
		return fault{}, false
	}
	what := "crash after it"
	if f.err != nil {
		what = f.err.Error()
	}
	d.fired = append(d.fired, fmt.Sprintf("%s #%d: %s", call, f.nth, what))
	return f, true
}

// do runs one call through the schedule: real does the work.
func (d *faultDisk) do(call string, real func() error) error {
	if d.crashed {
		return errCrashed
	}
	f, hit := d.at(call)
	if !hit {
		return real()
	}
	if f.err != nil {
		return f.err
	}
	err := real()
	d.crashed = true
	return cmp.Or(err, errCrashed)
}

func (d *faultDisk) open(name string, flag int) (f *os.File, err error) {
	err = d.do("open", func() error { f, err = d.osDisk.open(name, flag); return err })
	if err != nil && f != nil { // opened, then the process crashed
		f.Close()
		f = nil
	}
	return f, err
}

func (d *faultDisk) createTemp(dir, pattern string) (f *os.File, err error) {
	err = d.do("createTemp", func() error { f, err = d.osDisk.createTemp(dir, pattern); return err })
	if err != nil && f != nil { // created, then the process crashed: the file stays
		f.Close()
		f = nil
	}
	return f, err
}

func (d *faultDisk) write(f *os.File, p []byte) (n int, err error) {
	if d.crashed {
		return 0, errCrashed
	}
	ft, hit := d.at("write")
	if hit && ft.err != nil {
		n, _ = f.Write(p[:min(ft.short, max(len(p)-1, 0))])
		return n, ft.err
	}
	n, err = d.osDisk.write(f, p)
	if n == len(p) {
		d.wholeWrites++
	}
	if hit {
		d.crashed = true
		err = cmp.Or(err, errCrashed)
	}
	return n, err
}

func (d *faultDisk) sync(f *os.File) error {
	return d.do("sync", func() error { return d.osDisk.sync(f) })
}

func (d *faultDisk) truncate(f *os.File, size int64) error {
	done := false
	err := d.do("truncate", func() error {
		err := d.osDisk.truncate(f, size)
		done = err == nil
		return err
	})
	if done {
		d.truncates++
	} else if err != nil && !d.crashed {
		d.refused++
	}
	return err
}

func (d *faultDisk) rename(oldpath, newpath string) error {
	return d.do("rename", func() error { return d.osDisk.rename(oldpath, newpath) })
}

func (d *faultDisk) syncDir(dir string) error {
	return d.do("syncDir", func() error { return d.osDisk.syncDir(dir) })
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
	last       []Op // the batch commit sent last
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
// through the store, and to acked once the store has acknowledged it. The
// batch stays in last either way.
func (rig *faultRig) commit() error {
	ops := []Op{{Kind: OpInsert, Values: []string{fmt.Sprint(rig.next % 2), fmt.Sprint(rig.next)}}}
	if rig.next > 0 {
		ops = append(ops, Op{Kind: OpDelete, ID: rig.next - 1})
	}
	rig.next++
	rig.last = ops
	if _, err := rig.eng.ApplyBatch(ops); err != nil {
		return err
	}
	rig.ack(ops)
	return nil
}

// ack applies ops to acked, as a commit a restart restores.
func (rig *faultRig) ack(ops []Op) {
	if _, err := rig.acked.ApplyBatch(ops); err != nil {
		rig.t.Fatal(err)
	}
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
// the acknowledged commits — never a record more, none less. The one refusal
// whose record stays in the log whole — the fsync failed and so did the
// truncate that would cut the record off — wraps ErrInDoubt, and the restart
// replays it; no other refusal does.
func TestCommitFaults(t *testing.T) {
	injected := errors.New("injected fault")
	for _, tc := range []struct {
		name    string
		call    string
		short   int
		err     error
		inDoubt bool // every truncate fails too
	}{
		{"fsync fails after the write", "sync", 0, injected, false},
		{"short write", "write", 11, io.ErrShortWrite, false},
		{"nothing written", "write", 0, injected, false},
		{"ENOSPC mid-append", "write", 30, &os.PathError{Op: "write", Path: walName, Err: syscall.ENOSPC}, false},
		{"fsync fails, and so does the truncate", "sync", 0, injected, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newFaultRig(t)
			before := rig.walBytes()
			rig.disk.arm(tc.call, 1, tc.short, tc.err)
			if tc.inDoubt {
				rig.st.fs = tornDisk{rig.disk}
			}
			first, doubt := rig.commit(), rig.last
			if !errors.Is(first, ErrWAL) || !errors.Is(first, tc.err) || errors.Is(first, ErrInDoubt) != tc.inDoubt {
				t.Fatalf("commit: err = %v, want ErrWAL wrapping %v, in doubt: %v", first, tc.err, tc.inDoubt)
			}
			latched := rig.st.Failed()
			if latched == nil || !errors.Is(first, latched) || errors.Is(latched, ErrInDoubt) {
				t.Fatalf("Failed() = %v after %v", latched, first)
			}
			after := rig.walBytes()
			if tc.inDoubt {
				// The whole record stays: the restart replays what was refused.
				if !bytes.HasPrefix(after, before) || !bytes.HasSuffix(after, []byte("}\n")) || len(after) == len(before) {
					t.Fatalf("the record in doubt is not whole in the log:\n%s", after[len(before):])
				}
				before = after
			} else if !bytes.Equal(after, before) {
				t.Fatalf("the refused record is still in the log:\n%s", after[len(before):])
			}
			if err := rig.commit(); !errors.Is(err, latched) || errors.Is(err, ErrInDoubt) {
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
			if tc.inDoubt {
				rig.ack(doubt)
			}
			rig.reload()
		})
	}
}

// TestCommitFaultTornTail: when the record cannot even be cut off again — the
// truncate fails too — a torn one stays in the log, and recovery drops it: the
// refusal is not in doubt.
func TestCommitFaultTornTail(t *testing.T) {
	rig := newFaultRig(t)
	before := rig.walBytes()
	// Two faults in a row: the write, then the truncate that would undo it.
	rig.disk.arm("write", 1, 25, syscall.ENOSPC)
	rig.st.fs = tornDisk{rig.disk}
	if err := rig.commit(); !errors.Is(err, syscall.ENOSPC) || errors.Is(err, ErrInDoubt) {
		t.Fatalf("commit: err = %v, want ENOSPC and not in doubt", err)
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
// acknowledged commits, and no temporary file is left behind. A snapshot is
// written through a fixed buffer, so one larger than it takes several writes:
// the last row fails the second, and up to the rename the previous snapshot
// stays the directory's, byte for byte.
func TestCompactionFaults(t *testing.T) {
	injected := errors.New("injected fault")
	for _, tc := range []struct {
		name   string
		call   string
		nth    int
		failed bool // the fault fails the store
		big    bool // the snapshot is larger than the buffer
	}{
		{"temp file cannot be created", "createTemp", 1, false, false},
		{"snapshot write is short", "write", 1, false, false},
		{"snapshot fsync fails", "sync", 1, false, false},
		{"rename fails", "rename", 1, false, false},
		{"directory fsync fails", "syncDir", 1, false, false},
		{"log cannot be truncated", "truncate", 1, true, false},
		{"second snapshot write fails", "write", 2, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newFaultRig(t)
			if tc.big {
				// A pinned insert past a run of holes, committed as the
				// rig's commits are, whose id the next commit deletes.
				at := rig.eng.NextID() + snapshotBuffer
				ops := []Op{{Kind: OpInsert, Values: []string{"0", "pinned"}, At: &at}}
				if _, err := rig.eng.ApplyBatch(ops); err != nil {
					t.Fatal(err)
				}
				rig.ack(ops)
				rig.next = at + 1
			}
			snapshot := filepath.Join(rig.dir, snapshotName)
			before, err := os.ReadFile(snapshot)
			if err != nil {
				t.Fatal(err)
			}
			rig.disk.arm(tc.call, tc.nth, 100, injected)
			if err := rig.st.Compact(rig.eng); !errors.Is(err, injected) {
				t.Fatalf("compaction: err = %v, want the injected fault", err)
			}
			if failed := rig.st.Failed() != nil; failed != tc.failed {
				t.Fatalf("Failed() = %v", rig.st.Failed())
			}
			if tmps, _ := filepath.Glob(snapshot + ".tmp*"); len(tmps) > 0 {
				t.Fatalf("%v left behind", tmps)
			}
			if tc.call != "syncDir" && tc.call != "truncate" {
				after, err := os.ReadFile(snapshot)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(after, before) {
					t.Fatal("the failed compaction changed the previous snapshot")
				}
				if _, err := decodeSnapshotFile(after); err != nil {
					t.Fatalf("the previous snapshot no longer loads: %v", err)
				}
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
			var (
				off     int64
				backlog int
			)
			data := encodeSnapshot(t, rig.eng, func() uint64 {
				rig.st.mu.Lock()
				defer rig.st.mu.Unlock()
				off, backlog = rig.st.walOff, rig.st.pending
				return rig.st.seq
			})
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
			err := rig.st.rewriteTailLocked(off, backlog)
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
