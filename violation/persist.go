package violation

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jsonw"
	"repro/rules"
)

// Store is the file-backed persistence layer of the engine: an append-only
// JSONL write-ahead log of ops plus periodically compacted snapshots, under
// one state directory. It implements CommitLog, so attaching it with
// Engine.AttachWAL makes every mutation durable before it is applied.
//
// # On-disk layout
//
//	<dir>/snapshot.json  the last compacted state: schema, rule set (with
//	                     provenance), every live tuple with its id, the next
//	                     id to assign, and the WAL sequence number the
//	                     snapshot includes
//	<dir>/wal.jsonl      one JSON record per committed mutation:
//	                     {"seq":N,"ops":[...]} — a batch is one record, so
//	                     replay preserves its atomicity
//
// Recovery (Load) rebuilds the engine from the snapshot and replays every
// WAL record with a sequence number above the snapshot's; records at or
// below it are already folded in, which is what makes the
// compact-then-truncate pair crash-safe in either order. A torn trailing
// WAL record (a crash mid-append) is detected on open and truncated away.
//
// A Store assumes a single owning process and enforces it: OpenStore takes
// an advisory lock on <dir>/LOCK and fails fast when another live Store —
// in this or any other process — already holds the directory, so two nodes
// pointed at the same -state cannot interleave appends and corrupt the WAL.
// The lock is released by Close and by process death (including SIGKILL).
type Store struct {
	dir    string
	sync   bool
	fs     disk
	unlock func() error // releases the directory lock; nil once released

	// compactMu serialises whole compactions: without it two overlapping
	// Compact calls could rename their snapshots out of capture order and
	// regress the on-disk state below an already-truncated WAL.
	compactMu sync.Mutex

	mu      sync.Mutex
	wal     *os.File
	walOff  int64  // current end offset of the WAL file
	seq     uint64 // sequence number of the last committed record
	hasSnap bool   // a snapshot file exists: the directory holds state
	// opened and tail are the snapshot OpenStore decoded and the log records
	// above its sequence, kept for the one Load that consumes them: a full copy
	// of the data that nothing else ever reads.
	opened  *snapshotFile
	tail    []walRecord
	pending int    // ops appended since the last compaction
	line    []byte // the last record encoded, reused by the next commit
	// failed latches the first error writing, syncing or truncating the WAL:
	// from then on the file's contents past walOff are unknown, so nothing
	// more is written through this Store (see Failed).
	failed error

	// obsV holds the optional StoreObserver (boxed; see obs.go).
	obsV atomic.Value
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// Sync forces an fsync after every WAL append and snapshot write, making
	// commits durable against machine crashes, not just process exits. Off,
	// appends still reach the kernel before a mutation is applied (surviving
	// a kill), but may be lost on power failure.
	Sync bool
}

// walRecord is one committed mutation on the wire: either a batch of tuple
// ops ({"seq":N,"ops":[...]}) or a rule swap carrying the full replacement
// rule set ({"seq":N,"rules":{...}}), never both.
type walRecord struct {
	Seq   uint64     `json:"seq"`
	Ops   []Op       `json:"ops,omitempty"`
	Rules *rules.Set `json:"rules,omitempty"`
}

// cost is the record's weight towards the compaction backlog: one per tuple
// op, and one for a rule swap.
func (rec walRecord) cost() int {
	if rec.Rules != nil {
		return 1
	}
	return len(rec.Ops)
}

// appendLine appends the record as its line of the log: json.Marshal(rec),
// byte for byte (TestWALRecordWireForm), and the newline. A batch — every
// record but the rare rule swap — is written in one pass, its ops by appendOp.
func (rec walRecord) appendLine(dst []byte) ([]byte, error) {
	if rec.Rules != nil {
		line, err := json.Marshal(rec)
		return append(append(dst, line...), '\n'), err
	}
	w := jsonw.Compact(dst)
	w.Open('{')
	w.Key("seq")
	w.Uint(rec.Seq)
	if len(rec.Ops) > 0 {
		w.Key("ops")
		w.Open('[')
		for _, op := range rec.Ops {
			w.Elem()
			appendOp(&w, op)
		}
		w.Close(']')
	}
	w.Close('}')
	return append(w.Buf, '\n'), nil
}

// decode reads one line of the log into the zero record rec: json.Unmarshal's
// result and json.Unmarshal's error. A batch as appendLine writes it is plain
// and read in one pass (readWALRecord); a rule swap, and any line that is
// something else — torn, corrupt, or written by hand — goes to encoding/json.
func (rec *walRecord) decode(line []byte) error {
	if plain, ok := readWALRecord(line); ok {
		*rec = plain
		return nil
	}
	return json.Unmarshal(line, rec)
}

// readWALRecord reads a batch record that is plain JSON; false for any other
// line.
func readWALRecord(line []byte) (walRecord, bool) {
	r := jsonw.Read(line)
	var rec walRecord
	var seen uint32
	for r.Open('{'); r.More('}'); {
		switch r.Key(&seen, "seq", "ops") {
		case "seq":
			rec.Seq = r.Uint()
		case "ops":
			rec.Ops = ReadOps(&r)
		}
	}
	return rec, r.Plain()
}

// snapshotFile is the compacted state on the wire. Format 2, the only format
// read or written, stores the relation in the raw form of a core.Relation
// (core.Relation.Raw): one string dictionary per attribute holding the
// distinct values of its live tuples in first-use order (scanning ids
// ascending), and one int32 column per attribute with the dictionary code of
// every id slot, -1 marking a dead id (deleted, or a hole below a pinned
// insert). Recoding to first-use codes as it is written garbage-collects
// dictionary entries no live tuple carries and makes re-encoding a loaded
// snapshot byte-stable. A compaction streams the document (liveState.stream)
// and never builds this struct; it is what a snapshot decodes to, and
// json.Marshal of it is the reference the writer's bytes are held to.
type snapshotFile struct {
	Format     int        `json:"format"`
	WalSeq     uint64     `json:"wal_seq"`
	Attributes []string   `json:"attributes"`
	RuleSet    *rules.Set `json:"ruleset"`
	NextID     int        `json:"next_id"`
	Dicts      [][]string `json:"dicts,omitempty"`
	Columns    [][]int32  `json:"columns,omitempty"`
}

const (
	snapshotName  = "snapshot.json"
	walName       = "wal.jsonl"
	currentFormat = 2
)

// decodeSnapshotFile parses and structurally validates a snapshot. Every
// invariant the restore path relies on without re-checking is enforced here,
// so a corrupt or truncated file is rejected with an error — never a panic —
// before any allocation sized by its contents. Nothing in the result aliases
// data.
func decodeSnapshotFile(data []byte) (*snapshotFile, error) {
	file, ok := readSnapshotFile(data)
	if !ok {
		file = new(snapshotFile)
		if err := json.Unmarshal(data, file); err != nil {
			return nil, err
		}
	}
	if err := file.validate(); err != nil {
		return nil, err
	}
	return file, nil
}

// readSnapshotFile reads a snapshot as a compaction writes it — plain JSON, in one
// pass and without reflecting over a column per attribute — to the value
// json.Unmarshal makes of the same bytes; false for any other document, which
// is json.Unmarshal's to accept or refuse. The rule set goes through its own
// UnmarshalJSON either way.
func readSnapshotFile(data []byte) (*snapshotFile, bool) {
	r := jsonw.Read(data)
	file := new(snapshotFile)
	var seen uint32
	for r.Open('{'); r.More('}'); {
		switch r.Key(&seen, "format", "wal_seq", "attributes", "ruleset", "next_id", "dicts", "columns") {
		case "format":
			file.Format = r.Int()
		case "wal_seq":
			file.WalSeq = r.Uint()
		case "attributes":
			file.Attributes = r.Strings()
		case "ruleset":
			file.RuleSet = new(rules.Set)
			if file.RuleSet.UnmarshalJSON(r.Object()) != nil {
				r.Fail()
			}
		case "next_id":
			file.NextID = r.Int()
		case "dicts":
			file.Dicts = [][]string{}
			for r.Open('['); r.More(']'); {
				file.Dicts = append(file.Dicts, r.Strings())
			}
		case "columns":
			file.Columns = [][]int32{}
			for r.Open('['); r.More(']'); {
				file.Columns = append(file.Columns, r.Int32s())
			}
		}
	}
	return file, r.Plain()
}

// validate checks the snapshot's structural invariants (see
// decodeSnapshotFile). Schema-level validity (attribute names, rules) is
// checked by New on restore.
func (f *snapshotFile) validate() error {
	if f.Format == 1 {
		return fmt.Errorf("format 1 (per-tuple list) is no longer read: start any build from PR 9 to PR 14 on this directory once — its start-up compaction rewrites the snapshot as format %d — then start this build", currentFormat)
	}
	if f.Format != currentFormat {
		return fmt.Errorf("format %d, this build reads only format %d", f.Format, currentFormat)
	}
	if len(f.Attributes) == 0 {
		return fmt.Errorf("no attributes")
	}
	if f.NextID < 0 {
		return fmt.Errorf("negative next_id %d", f.NextID)
	}
	arity := len(f.Attributes)
	if len(f.Dicts) != arity || len(f.Columns) != arity {
		return fmt.Errorf("%d dictionaries and %d columns for %d attributes", len(f.Dicts), len(f.Columns), arity)
	}
	for a := 0; a < arity; a++ {
		seen := make(map[string]bool, len(f.Dicts[a]))
		for _, v := range f.Dicts[a] {
			if seen[v] {
				return fmt.Errorf("attribute %d dictionary repeats %q", a, v)
			}
			seen[v] = true
		}
		if len(f.Columns[a]) != f.NextID {
			return fmt.Errorf("attribute %d column has %d slots, next_id is %d", a, len(f.Columns[a]), f.NextID)
		}
		for id, code := range f.Columns[a] {
			if code != core.Absent && (code < 0 || int(code) >= len(f.Dicts[a])) {
				return fmt.Errorf("attribute %d slot %d holds code %d outside its %d-value dictionary", a, id, code, len(f.Dicts[a]))
			}
			// A dead id must be dead on every column; compare against
			// attribute 0, the column the engine derives liveness from.
			if (code == core.Absent) != (f.Columns[0][id] == core.Absent) {
				return fmt.Errorf("id %d is dead on attribute 0 but not on attribute %d (or vice versa)", id, a)
			}
		}
	}
	return nil
}

// OpenStore opens (creating if needed) the state directory: it reads the
// snapshot, scans the WAL for the last committed sequence number, and
// truncates a torn trailing record left by a crash mid-append. Call Load to
// rebuild the engine, then Engine.AttachWAL(store) to log further mutations.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	return openStore(dir, opts, osDisk{})
}

// disk is every call through which the store changes what is on disk. It is
// the seam the fault tests inject at (persist_fault_test.go): the files behind
// it are real ones either way — reads, seeks and closes go to them directly —
// and osDisk, the calls themselves, is the only implementation outside tests.
type disk interface {
	open(name string, flag int) (*os.File, error) // os.OpenFile, mode 0644
	createTemp(dir, pattern string) (*os.File, error)
	write(f *os.File, p []byte) (int, error)
	sync(f *os.File) error
	truncate(f *os.File, size int64) error
	rename(oldpath, newpath string) error
	syncDir(dir string) error // fsyncs a directory, making renames inside it durable
}

type osDisk struct{}

func (osDisk) open(name string, flag int) (*os.File, error) { return os.OpenFile(name, flag, 0o644) }
func (osDisk) createTemp(dir, pattern string) (*os.File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osDisk) write(f *os.File, p []byte) (int, error) { return f.Write(p) }
func (osDisk) sync(f *os.File) error                   { return f.Sync() }
func (osDisk) truncate(f *os.File, size int64) error   { return f.Truncate(size) }
func (osDisk) rename(oldpath, newpath string) error    { return os.Rename(oldpath, newpath) }
func (osDisk) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// diskWriter is a file as an io.Writer whose writes go through the seam.
type diskWriter struct {
	fs disk
	f  *os.File
}

func (w diskWriter) Write(p []byte) (int, error) { return w.fs.write(w.f, p) }

// openStore is OpenStore over the given disk.
func openStore(dir string, opts StoreOptions, fs disk) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("violation: opening store: %w", err)
	}
	unlock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, sync: opts.Sync, fs: fs, unlock: unlock}
	fail := func(err error) (*Store, error) {
		st.releaseLock()
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotName))
	switch {
	case err == nil:
		file, err := decodeSnapshotFile(data)
		if err != nil {
			return fail(fmt.Errorf("violation: unreadable %s: %w", snapshotName, err))
		}
		st.opened, st.hasSnap = file, true
		st.seq = file.WalSeq
	case os.IsNotExist(err):
	default:
		return fail(fmt.Errorf("violation: opening store: %w", err))
	}
	wal, err := fs.open(filepath.Join(dir, walName), os.O_CREATE|os.O_RDWR)
	if err != nil {
		return fail(fmt.Errorf("violation: opening store: %w", err))
	}
	st.wal = wal
	if err := st.scanWAL(); err != nil {
		wal.Close()
		return fail(err)
	}
	return st, nil
}

// releaseLock releases the directory lock if still held.
func (st *Store) releaseLock() {
	if st.unlock != nil {
		_ = st.unlock()
		st.unlock = nil
	}
}

// scanWAL is the one read of the log, on open: it advances seq past every
// intact record, keeps the records above the snapshot's sequence for Load,
// truncates the file after the last intact one (dropping a torn tail), and
// leaves the file offset there for appending. A record is intact only when its
// trailing newline made it to disk and its JSON decodes, every op validated —
// Append writes record+'\n' in one call, so anything short of that is a tear
// from a crash mid-append, and everything from the first tear on is untrusted.
// Records are read with no line-length cap: a large batch is one (arbitrarily
// long) record.
func (st *Store) scanWAL() error {
	folded := st.seq // the snapshot's sequence (0 without one)
	var off int64
	r := bufio.NewReader(st.wal)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A trailing fragment without its newline (len(line) > 0) is a
			// torn append: the commit never returned, drop it.
			break
		}
		if err != nil {
			return fmt.Errorf("violation: scanning %s: %w", walName, err)
		}
		var rec walRecord
		if rec.decode(line) != nil {
			break // torn or corrupt: ignore from here on
		}
		st.seq = max(st.seq, rec.Seq)
		if rec.Seq > folded {
			st.tail = append(st.tail, rec)
		}
		st.pending += rec.cost()
		off += int64(len(line))
	}
	if err := st.fs.truncate(st.wal, off); err != nil {
		return fmt.Errorf("violation: truncating torn %s tail: %w", walName, err)
	}
	if _, err := st.wal.Seek(off, io.SeekStart); err != nil {
		return fmt.Errorf("violation: scanning %s: %w", walName, err)
	}
	st.walOff = off
	return nil
}

// Append commits one mutation record to the log. It is the CommitLog hook the
// engine calls under its write lock: a batch becomes a single record (and,
// with Sync, a single fsync — the group commit that makes batched ingest fast)
// and either lands completely or, on error, fails the store (see Failed).
func (st *Store) Append(ops []Op) error {
	return st.commit(walRecord{Ops: ops})
}

// AppendRules commits one rule-swap record to the log — the CommitLog hook
// Engine.SwapRules calls under its write lock. The record carries the
// full replacement rule set, so replay restores whatever set was current,
// however many swaps preceded the crash.
func (st *Store) AppendRules(set *rules.Set) error {
	return st.commit(walRecord{Rules: set})
}

// Failed returns the error that stopped the store, or nil. A failed write,
// fsync or truncate of the WAL is not retried: after a failed fsync the
// kernel may have dropped the dirty pages and cleared the error, so a later
// successful one would prove nothing about the records before it. The first
// such error is kept instead, and every later Append, AppendRules and Compact
// returns it without touching the files; what was acknowledged before is what
// the next OpenStore + Load restores. Reads of the engine are unaffected. A
// compaction that fails before it touches the WAL leaves the store usable;
// one whose tail rewrite fails after renaming the new log into place fails it
// (rewriteTailLocked).
func (st *Store) Failed() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.failed
}

// failLocked latches err as the store's failure and returns the latched
// error. The record being appended was not acknowledged, so it is cut off
// again where that still works — recovery would drop a torn one anyway, but
// would replay one that is whole. So when whole (the write landed all of the
// record) and the cut fails, that one refusal also wraps ErrInDoubt. Callers
// must hold st.mu.
func (st *Store) failLocked(err error, whole bool) error {
	cut := st.fs.truncate(st.wal, st.walOff)
	st.failed = fmt.Errorf("violation: store failed, no further commits until restart: %w", err)
	if whole && cut != nil {
		return fmt.Errorf("%w: %w", ErrInDoubt, st.failed)
	}
	return st.failed
}

// commit appends one record (its Seq is assigned here): it lands completely
// and is acknowledged, or the store fails.
func (st *Store) commit(rec walRecord) (err error) {
	start := time.Now()
	defer func() { st.obs().ObserveWALAppend(rec.cost(), time.Since(start).Seconds(), err) }()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed != nil {
		return st.failed
	}
	rec.Seq = st.seq + 1
	line, err := rec.appendLine(st.line[:0])
	if err != nil {
		return err
	}
	if cap(line) <= 1<<20 { // one huge batch must not pin its size for good
		st.line = line
	}
	if n, err := st.fs.write(st.wal, line); err != nil {
		return st.failLocked(err, n == len(line))
	}
	if st.sync {
		fsyncStart := time.Now()
		if err := st.fs.sync(st.wal); err != nil {
			return st.failLocked(err, true)
		}
		st.obs().ObserveWALFsync(time.Since(fsyncStart).Seconds())
	}
	st.walOff += int64(len(line))
	st.seq++
	st.pending += rec.cost()
	return nil
}

// Load rebuilds the engine from the snapshot plus the WAL tail. It returns
// (nil, false, nil) when the store holds no state yet — build the engine some
// other way, Compact it once, then AttachWAL. Tuple ids (and therefore every
// violation report) are restored exactly as they were. Load is what follows
// OpenStore and it runs once: it consumes the snapshot and the log records
// OpenStore decoded, and a store that has been loaded from or compacted since
// must be reopened first.
func (st *Store) Load(opts Options) (*Engine, bool, error) {
	st.mu.Lock()
	snap, tail, hasSnap := st.opened, st.tail, st.hasSnap
	st.opened, st.tail = nil, nil
	st.mu.Unlock()
	if !hasSnap {
		if st.seq > 0 {
			return nil, false, fmt.Errorf("violation: store has a write-ahead log but no %s", snapshotName)
		}
		return nil, false, nil
	}
	if snap == nil {
		return nil, false, fmt.Errorf("violation: Load after a Load or a Compact of the same store: reopen %s first", st.dir)
	}
	e, err := New(snap.Attributes, snap.RuleSet, opts)
	if err != nil {
		return nil, false, err
	}
	if err := e.restoreSnapshot(snap); err != nil {
		return nil, false, err
	}
	// Replay: every record above the snapshot's sequence, in log order, each
	// as one atomic batch — the engine has no log attached yet. Each bumps the
	// epoch once from the snapshot's WalSeq, so afterwards epoch == Seq() and
	// a delta client's pre-crash since values stay meaningful (the replayed
	// tail even repopulates the delta ring).
	for _, rec := range tail {
		if rec.Rules != nil {
			if _, err := e.SwapRules(context.Background(), rec.Rules); err != nil {
				return nil, false, fmt.Errorf("violation: replaying %s rule swap %d: %w", walName, rec.Seq, err)
			}
		} else if _, err := e.ApplyBatch(rec.Ops); err != nil {
			return nil, false, fmt.Errorf("violation: replaying %s record %d: %w", walName, rec.Seq, err)
		}
	}
	return e, true, nil
}

// Compact writes a fresh snapshot of the engine's current state (atomically,
// via a temp file and rename; with Sync the parent directory is fsynced so
// the rename is durable before the log shrinks) and drops the WAL records it
// folds in — truncating a quiescent log, or rewriting a busy one down to the
// unfolded tail, so the WAL stays bounded under sustained writes. Safe to
// call concurrently with reads and writes: the state and the WAL sequence it
// covers are captured at one consistent point under the engine's read lock
// (a copy of the live tuples' ids and codes; canonicalisation and the file
// write, through a snapshotBuffer-byte bufio.Writer, run unlocked), and
// recovery skips folded records by sequence number, so a crash anywhere in the
// procedure is recoverable. What a compaction holds in memory follows the live
// tuples, not the ids ever assigned. A busy log keeps its tail by the byte
// offset captured with the state: the log is read once per process, by
// OpenStore, and never again. The observer sees the snapshot's size (0 when
// the failure preceded writing it) and the whole call's duration.
func (st *Store) Compact(e *Engine) (err error) {
	var size int
	start := time.Now()
	defer func() { st.obs().ObserveCompaction(size, time.Since(start).Seconds(), err) }()
	st.compactMu.Lock()
	defer st.compactMu.Unlock()
	if err := st.Failed(); err != nil {
		return err
	}
	// Writers hold the engine write lock across their Append, so while the
	// capture holds the engine read lock the store's seq — and the log's end
	// offset and backlog — exactly match the captured state.
	var (
		off     int64
		backlog int
	)
	live := e.captureLive(func() uint64 {
		st.mu.Lock()
		defer st.mu.Unlock()
		off, backlog = st.walOff, st.pending
		return st.seq
	})
	tmp, err := st.fs.createTemp(st.dir, snapshotName+".tmp*")
	if err != nil {
		return fmt.Errorf("violation: compacting: %w", err)
	}
	defer os.Remove(tmp.Name())
	size, err = live.stream(diskWriter{st.fs, tmp})
	if err == nil && st.sync {
		err = st.fs.sync(tmp)
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return fmt.Errorf("violation: compacting: %w", err)
	}
	if err := st.fs.rename(tmp.Name(), filepath.Join(st.dir, snapshotName)); err != nil {
		return fmt.Errorf("violation: compacting: %w", err)
	}
	if st.sync {
		// Make the rename itself durable before any WAL shrinking below:
		// otherwise a power cut could resurface the old snapshot next to an
		// already-shortened log.
		if err := st.fs.syncDir(st.dir); err != nil {
			return fmt.Errorf("violation: compacting: %w", err)
		}
	}

	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed != nil { // a commit failed while the snapshot was being written
		return st.failed
	}
	st.opened, st.tail, st.hasSnap = nil, nil, true
	if st.seq == live.walSeq {
		// Nothing landed since the capture: the whole log is folded in.
		if err := st.fs.truncate(st.wal, 0); err != nil {
			return st.failLocked(err, false)
		}
		st.walOff = 0
		st.pending = 0
		if _, err := st.wal.Seek(0, io.SeekStart); err != nil {
			return st.failLocked(err, false)
		}
		return nil
	}
	// Appends landed while the snapshot was being written: rewrite the log
	// down to the unfolded tail so it cannot grow without bound under
	// sustained traffic. On any error the full log is kept — folded records
	// are harmless, recovery skips them by sequence number.
	return st.rewriteTailLocked(off, backlog)
}

// rewriteTailLocked replaces the WAL with its bytes from off on — the records
// committed since a compaction captured the log at that offset with backlog
// ops pending — atomically (temp file + rename + reopen). Commits wait on st.mu
// meanwhile; the tail is copied as the bytes it was appended as, decoding
// nothing, and read with ReadAt, which leaves the append handle's offset
// alone. An error before the rename leaves the full log and a usable store;
// one after it fails the store. Callers must hold st.mu.
func (st *Store) rewriteTailLocked(off int64, backlog int) error {
	tmp, err := st.fs.createTemp(st.dir, walName+".tmp*")
	if err != nil {
		return fmt.Errorf("violation: rewriting %s: %w", walName, err)
	}
	defer os.Remove(tmp.Name())
	_, err = io.Copy(diskWriter{st.fs, tmp}, io.NewSectionReader(st.wal, off, st.walOff-off))
	if err == nil && st.sync {
		err = st.fs.sync(tmp)
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return fmt.Errorf("violation: rewriting %s: %w", walName, err)
	}
	if err := st.fs.rename(tmp.Name(), filepath.Join(st.dir, walName)); err != nil {
		return fmt.Errorf("violation: rewriting %s: %w", walName, err)
	}
	// The directory's log is the new file now, and st.wal a file no restart
	// would look at: an error from here on cannot leave the store committing
	// to it, so it fails the store.
	if st.sync {
		if err := st.fs.syncDir(st.dir); err != nil {
			return st.failLocked(err, false)
		}
	}
	wal, err := st.fs.open(filepath.Join(st.dir, walName), os.O_RDWR)
	if err != nil {
		return st.failLocked(err, false)
	}
	end, err := wal.Seek(0, io.SeekEnd)
	if err != nil {
		wal.Close()
		return st.failLocked(err, false)
	}
	st.wal.Close()
	st.wal = wal
	st.walOff = end
	st.pending -= backlog
	return nil
}

// Pending returns the number of ops appended to the WAL since the last
// compaction (including ops found in the log on open) — the compaction
// scheduling signal cmd/cfdserve polls.
func (st *Store) Pending() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.pending
}

// Seq returns the sequence number of the last committed record. The engine
// re-bases its mutation epoch onto it at AttachWAL, making epochs — and the
// delta history keyed by them — comparable across restarts of the same store.
func (st *Store) Seq() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq
}

// Dir returns the state directory.
func (st *Store) Dir() string { return st.dir }

// Close closes the WAL file and releases the directory lock. The engine must
// not mutate through this store afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	err := st.wal.Close()
	st.releaseLock()
	return err
}

// liveState is what a compaction writes, as captureLive copies it out of the
// engine: the live tuples only — their ids and, per attribute, their codes
// under the engine's dictionaries — so its size follows the tuples, not every
// id ever assigned. stream canonicalises it and writes it as a format 2
// snapshot through a bufio.Writer, dictionaries, ids and codes read in place.
type liveState struct {
	walSeq     uint64
	attributes []string
	ruleSet    *rules.Set
	nextID     int
	// ids are the live ids, ascending, as Engine.liveIDs lists them.
	ids []int32
	// dicts are the engine's dictionaries, in code order. They only ever
	// append, so the captured slices stay valid and unchanged, unlocked.
	dicts [][]string
	// codes holds, per attribute, the code of each id in ids under dicts,
	// until stream recodes it in place to the snapshot's first-use codes.
	codes [][]int32
}

// captureLive captures the engine state — and, through seq, the WAL sequence
// it corresponds to — at one consistent point under the read lock: the live
// ids (Engine.liveIDs), then each attribute's codes of those ids and the
// dictionaries' slice headers. A nil seq records sequence 0.
func (e *Engine) captureLive(seq func() uint64) *liveState {
	e.mu.RLock()
	defer e.mu.RUnlock()
	live := &liveState{attributes: e.schema.Names(), ruleSet: e.set, nextID: e.rel.Size(), ids: e.liveIDs()}
	live.dicts, live.codes = e.rel.Raw()
	for a, col := range live.codes {
		codes := make([]int32, len(live.ids))
		for i, id := range live.ids {
			codes[i] = col[id]
		}
		live.codes[a] = codes
	}
	if seq != nil {
		live.walSeq = seq()
	}
	return live
}

// snapshotBuffer is the size of the bufio.Writer a snapshot is written
// through: no write reaches the file larger than it unless one escaped value
// alone is.
const snapshotBuffer = 64 << 10

// holeRun is a run of dead slots as a column writes them after its first
// slot; a longer run is written from it in pieces.
var holeRun = strings.Repeat(",-1", 1024)

// stream writes the snapshot document and a newline to out, through a
// snapshotBuffer-byte bufio.Writer, and returns the document's size. The
// bytes are json.Marshal's of the snapshotFile whose dictionaries hold each
// attribute's values in first-use order over an ascending-id scan of the live
// tuples and whose columns hold those codes, -1 in every dead slot: so
// dictionary entries no live tuple carries are dropped, and re-encoding a
// restored snapshot reproduces it byte for byte, whatever the engine's code
// assignment. The dictionary pass recodes live.codes in place, through one
// code→code table sized to the engine's dictionary, and writes each value at
// its first use; the column pass writes the recoded codes and copies hole runs
// from holeRun. Numbers and strings are appended in place to the writer's
// free buffer. The rule set goes through its own MarshalJSON and is written in
// pieces of at most snapshotBuffer, so bufio never passes it to out whole.
func (live *liveState) stream(out io.Writer) (int, error) {
	ruleset, err := json.Marshal(live.ruleSet)
	if err != nil {
		return 0, err
	}
	count := &countingWriter{w: out}
	// w keeps its first write error and returns it from Flush, so the writes
	// below go unchecked.
	w := bufio.NewWriterSize(count, snapshotBuffer)
	str := func(v string) {
		s := jsonw.Compact(w.AvailableBuffer())
		s.String(v)
		w.Write(s.Buf)
	}
	holes := func(from, to int) {
		if from == 0 && to > 0 {
			w.WriteString("-1")
			from++
		}
		for from < to {
			n := min(to-from, len(holeRun)/3)
			w.WriteString(holeRun[:3*n])
			from += n
		}
	}
	w.WriteString(`{"format":`)
	w.Write(strconv.AppendInt(w.AvailableBuffer(), currentFormat, 10))
	w.WriteString(`,"wal_seq":`)
	w.Write(strconv.AppendUint(w.AvailableBuffer(), live.walSeq, 10))
	w.WriteString(`,"attributes":[`)
	for a, name := range live.attributes {
		if a > 0 {
			w.WriteByte(',')
		}
		str(name)
	}
	w.WriteString(`],"ruleset":`)
	for len(ruleset) > 0 {
		n := min(len(ruleset), snapshotBuffer)
		w.Write(ruleset[:n])
		ruleset = ruleset[n:]
	}
	w.WriteString(`,"next_id":`)
	w.Write(strconv.AppendInt(w.AvailableBuffer(), int64(live.nextID), 10))
	w.WriteString(`,"dicts":[`)
	var trans []int32 // engine code → snapshot code, core.Absent until first use
	for a, dict := range live.dicts {
		if a > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('[')
		trans = slices.Grow(trans[:0], len(dict))[:len(dict)]
		for c := range trans {
			trans[c] = core.Absent
		}
		next := int32(0)
		codes := live.codes[a]
		for i, c := range codes {
			if trans[c] == core.Absent {
				if next > 0 {
					w.WriteByte(',')
				}
				str(dict[c])
				trans[c] = next
				next++
			}
			codes[i] = trans[c]
		}
		w.WriteByte(']')
	}
	w.WriteString(`],"columns":[`)
	for a, codes := range live.codes {
		if a > 0 {
			w.WriteByte(',')
		}
		w.WriteByte('[')
		slot := 0 // the next id slot to write
		for i, id := range live.ids {
			holes(slot, int(id))
			b := w.AvailableBuffer()
			if id > 0 {
				b = append(b, ',')
			}
			w.Write(strconv.AppendInt(b, int64(codes[i]), 10))
			slot = int(id) + 1
		}
		holes(slot, live.nextID)
		w.WriteByte(']')
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return count.n, err
	}
	return count.n - 1, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}

// restoreSnapshot loads a validated snapshot (see decodeSnapshotFile) into an
// empty engine: every tuple lands at its original id, dead ids stay holes,
// and the next id to assign is the file's next_id. The restored state is
// exactly the state after commit wal_seq, so it commits at that epoch.
func (e *Engine) restoreSnapshot(file *snapshotFile) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.rel.Size() != 0 {
		return fmt.Errorf("violation: restore into a non-empty engine")
	}
	e.loadLocked(file.Dicts, file.Columns, file.NextID)
	e.commitBulkLocked(file.WalSeq)
	return nil
}
