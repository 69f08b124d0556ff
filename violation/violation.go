// Package violation is the serving side of the paper's CFD workflow: an
// indexed, incremental, concurrency-safe violation-detection engine. Where
// repro/cleaning's original detector rescanned the whole relation for every
// rule, the Engine is shaped like the paper's pattern tableaux (§2.3): it
// maintains one hash index per distinct left-hand-side attribute set X among
// its rules — the tuples grouped by their X values, stored once however many
// rules share X — and reduces each rule to a filter on its pattern constants,
// the right-hand-side attribute it reads and three counters. Inserting,
// deleting or updating a tuple touches one group per X: O(LHS sets) hash
// lookups plus an integer compare per rule and counter updates for the rules
// that apply, independent of the relation size.
//
// An Engine is built from a first-class rule set (*rules.Set), bulk loaded
// from a *cfd.Relation (one repro/internal/pool task per LHS-set index), and
// then kept current with Insert / Delete / Update — or, amortising the lock
// and the write-ahead-log append over many tuples, with an atomic ApplyBatch
// — as tuples arrive and change.
// The rule set itself is live too: SwapRules atomically replaces it while
// reads and writes proceed, building the index of every LHS set of the new
// rules off to the side, so freshly re-discovered rules can be hot-swapped
// into a long-running server without a restart.
// The current violation state is read back as a Report (the same shape
// repro/cleaning returns), a per-tuple lookup, or the repair view — Suspects
// and Repairs, the likely culprits of each violating group and their
// corrections, read off the same indexes. On
// any bulk-loaded relation the Engine reports exactly the
// violation set of the paper's batch semantics (§2.1.2): the batch detectors
// in repro/cleaning and repro/cfd route through the same underlying index
// (internal/core.GroupIndex), so there is one source of truth.
//
// # Storage
//
// The tuples live in a single internal/core.Relation — the columnar,
// dictionary-encoded relation type the discovery algorithms read — with the
// tuple id as the slot and a hole wherever an id was deleted or skipped by a
// pinned insert. BulkLoad and snapshot restore recode tuples into the
// engine's relation, and Relation recodes it into the compact hole-free copy
// handed to miners and exports, both through core.Relation.AppendRecoded. A
// compaction builds no second relation: it copies the live tuples' codes and
// recodes that copy in place, through its own code→code table, into the
// canonical first-use form format 2 stores (see Store.Compact). A relation
// with holes never leaves the engine. It is also the indexes' only row
// store: a group member is a tuple id, its codes read from the relation.
//
// # Concurrency
//
// The Engine is safe for concurrent use by any number of readers and
// writers. Mutations (Insert, Delete, Update, ApplyBatch, BulkLoad) are
// serialised by an internal write lock. BulkLoad, like a rule swap's index
// builds and a full report build, runs one repro/internal/pool task per
// LHS-set index; ApplyBatch (and the single-tuple mutations, one-op batches)
// applies its ops one after another on the calling goroutine, keeping each
// tuple's row in the relation exactly while the indexes hold the tuple. The
// bulk readers Report and Dirty serve an immutable copy-on-write report keyed
// by a mutation epoch: a bulk change publishes the report it built, the
// first read after any other mutation patches the previous report from the
// delta history, and every subsequent read shares it without taking any lock
// at all, so a polling client never stalls the write path. Point reads (Row,
// TupleViolations, Size, ...) and the repair view (Suspects, Repairs — a walk
// of the violating groups) read the live state under a read lock. Everything
// a reader receives — reports, violation tuple slices, rows — is immutable or
// freshly built; treat shared slices as read-only.
//
// # Durability
//
// An Engine is memory-only by default. Attach a Store (or any CommitLog)
// with AttachWAL and every mutation is appended to a write-ahead log before
// it is applied; rule swaps are journaled too (CommitLog.AppendRules), so
// replay restores the rule set that was current at the crash. Store adds
// compacted snapshots on top, so a restarted process can rebuild the exact
// engine state — tuple ids included — with Store.Load. See Store for the
// on-disk layout and cmd/cfdserve for the serving deployment.
package violation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/cfd"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/rules"
)

// ErrNotFound is wrapped by errors about tuple ids that are not live (never
// assigned, or deleted). errors.Is(err, ErrNotFound) distinguishes them from
// validation errors such as arity mismatches.
var ErrNotFound = errors.New("tuple not found")

// ErrWAL is wrapped by mutation errors caused by the attached CommitLog
// refusing the append: the mutation was valid but is not durable and was not
// applied. Servers should report it as an internal fault, not a bad request.
var ErrWAL = errors.New("write-ahead log append failed")

// ErrInDoubt is wrapped, beside ErrWAL, by the one refused mutation whose
// record reached the log whole and could not be cut off again: the engine did
// not apply it, but the next OpenStore + Load may replay it. Servers should
// report it as unavailable, telling the client to read the state back after
// the restart rather than assume the write was lost.
var ErrInDoubt = errors.New("commit in doubt: a restart may replay it")

// Violation records the tuples currently violating one rule.
type Violation struct {
	Rule   cfd.CFD
	Tuples []int
}

// Report is a full snapshot of the engine's violation state, mirroring the
// shape of repro/cleaning's batch report. Its slices are shared with the
// report the engine publishes; treat them as read-only.
type Report struct {
	// Epoch is the mutation epoch the report captures; poll Changes(Epoch)
	// for what happened since.
	Epoch uint64
	// Violations holds one entry per violated rule, in rule order.
	Violations []Violation
	// DirtyTuples is the sorted union of all violating tuple ids.
	DirtyTuples []int
	// RulesChecked is the number of rules the engine maintains.
	RulesChecked int
}

// Clean reports whether no violations are present.
func (rep *Report) Clean() bool { return len(rep.Violations) == 0 }

// Options configures an Engine.
type Options struct {
	// Workers bounds the number of goroutines BulkLoad, SwapRules and full
	// report builds may use: 0 runs one worker per available CPU (the
	// default), 1 runs sequentially. Each spreads its work as one pool task
	// per LHS-set index, so any worker count yields identical state.
	// ApplyBatch and the single-tuple Insert/Delete/Update always run on the
	// calling goroutine: each op costs O(LHS sets) and is not worth fanning
	// out.
	Workers int
}

// DefaultMaxPinGap bounds how many unassigned ids a pinned insert (Op.At) may
// open past the current end of the row table. Every id below the pin keeps a
// slot, so an unbounded pin is an unbounded allocation — and once write-ahead
// logged it would crash every replay; pins are checked against the bound
// before the WAL append, so an oversized one is rejected and never logged. A
// cluster coordinator assigns ids globally and pins them on the owning shard,
// so a shard's gap is the fleet's insert volume since that shard last
// received a row — 2^20 ids (~24 MiB of empty slots) accommodates even
// heavily skewed partitions while keeping a hostile pin ("at": 1e12) a
// validation error instead of a multi-terabyte allocation.
const DefaultMaxPinGap = 1 << 20

// deltaHistory is the length of the ring of per-commit violation deltas
// Changes serves from: a reader up to this many epochs behind gets an
// incremental delta, an older one ErrCompacted and a full read.
const deltaHistory = 1024

// CommitLog is the write-ahead hook of the engine: when attached, every
// mutation goes through it — under the engine's write lock, after validation,
// before the mutation is applied — and a non-nil error aborts the mutation
// without applying it. Append journals a batch of tuple ops as one record;
// AppendRules journals a rule swap as one record carrying the full replacement
// set, so replay restores the rule set that was current at the crash, not the
// one the process booted with. *Store is the file-backed implementation.
type CommitLog interface {
	Append(ops []Op) error
	AppendRules(set *rules.Set) error
}

// Engine is an incremental violation detector over a swappable rule set and
// a mutable set of tuples. Tuple ids are assigned by Insert/ApplyBatch/
// BulkLoad in arrival order, starting at 0, and are never reused; for a
// relation loaded by a single BulkLoad the ids coincide with the relation's
// tuple indexes. The rule set is replaced wholesale by SwapRules; it is
// never mutated in place.
//
// Id stability has a cost: each ever-assigned id keeps a slot (a hole once
// deleted) in the engine's relation, and the per-attribute dictionaries only
// grow. A deployment with unbounded insert/delete churn should periodically
// rebuild the engine from Relation() (re-basing ids) to reclaim that memory.
type Engine struct {
	// mu serialises mutations (Lock) against point reads and snapshot
	// rebuilds (RLock). The indexes and the relation are only written under
	// Lock.
	mu     sync.RWMutex
	schema *core.Schema
	// rel is the tuple store: slot = tuple id, a hole once deleted. Its
	// dictionaries also intern the rule constants, so they may hold codes no
	// tuple carries. It is the indexes' only row store: they read every code
	// by tuple id, so a tuple's row is in rel exactly while it is indexed
	// (see apply).
	rel   *core.Relation
	set   *rules.Set
	rules []cfd.CFD
	// encoded holds rules compiled against rel's dictionaries, in the same
	// order: what a load or a restore lays its indexes out from.
	encoded []core.CFD
	// indexes holds one shared group index per distinct LHS attribute set
	// among the rules, in order of first appearance; between them they place
	// every rule exactly once. roots holds the partitions the refining ones
	// read their groups through (core.Root), each maintained after them.
	indexes   []*lhsIndex
	roots     []*core.Root
	workers   int
	maxPinGap int    // DefaultMaxPinGap; a field so tests can narrow it
	maxID     uint64 // largest id an insert may take: MaxUint32, as an index member is 32 bits; a field so tests can narrow it
	wal       CommitLog

	// epoch counts mutations; snap caches the immutable report published at a
	// given epoch. Readers that find a current one never lock.
	epoch  atomic.Uint64
	snap   atomic.Pointer[Report]
	snapMu sync.Mutex // serialises report refreshes

	// The incremental materialized-view state, all written under mu.Lock:
	// deltas is the bounded ring of per-commit deltas, indexed by epoch modulo
	// its length, holding the deltaN most recent epochs; dirtyRef counts, per
	// id slot, the rules the tuple violates (so delta commits know when a
	// tuple enters or leaves the dirty union), and dirty how many counts are
	// above zero; watch is closed and replaced at every epoch bump, waking
	// WaitChange waiters.
	deltas   []*Delta
	deltaN   int
	dirtyRef []int32
	dirty    int
	watch    chan struct{}

	// obsV holds the optional EngineObserver (boxed; see obs.go); obsCounters
	// are the always-on internal event counters behind DeltaStats.
	obsV atomic.Value
	obsCounters
}

// New builds an engine over the given attribute schema, serving the rules of
// set (a nil set serves no rules). Rules must be structurally valid and may
// only name the given attributes; rule constants outside any data seen so far
// are fine (they simply match no tuple until one arrives). The set's rule
// order is preserved in every snapshot.
func New(attributes []string, set *rules.Set, opts Options) (*Engine, error) {
	if len(attributes) == 0 {
		return nil, fmt.Errorf("violation: schema needs at least one attribute")
	}
	schema, err := core.NewSchema(attributes...)
	if err != nil {
		return nil, fmt.Errorf("violation: %w", err)
	}
	if set == nil {
		set = rules.Of()
	}
	e := &Engine{
		schema:    schema,
		rel:       core.NewRelation(schema),
		set:       set,
		workers:   opts.Workers,
		maxPinGap: DefaultMaxPinGap,
		maxID:     math.MaxUint32,
		deltas:    make([]*Delta, deltaHistory),
		watch:     make(chan struct{}),
	}
	e.rules = append([]cfd.CFD(nil), set.CFDs()...)
	if e.encoded, err = e.compileRules(e.rules); err != nil {
		return nil, err
	}
	// No tuple is live yet, so every index keeps its own, empty groups.
	e.indexes, e.roots, _ = e.indexRules(context.Background(), e.encoded, nil, nil)
	return e, nil
}

// lhsIndex is the group index of one LHS attribute set together with where its
// rules sit in the engine's rule table. The placement is fixed when the index
// is laid out (indexRules); the GroupIndex inside is what mutations maintain.
type lhsIndex struct {
	*core.GroupIndex
	at []int // position in Engine.rules of each of the index's rules
}

// indexRules lays out the indexes of the compiled rules encoded and builds
// them over the live tuples ids lists; New, a load and a rule swap all go
// through it. There is one index per LHS set (groupByLHS's sets, in order): a
// core.NewRefinement of the root core.PlanRoots picks for it, or a
// core.NewGroupIndex with groups of its own. A root of held on a picked
// attribute is kept as it is, built; every other picked root and every index
// is built over ids, one repro/internal/pool task each (core.Root.Build,
// core.GroupIndex.Build). A refinement's build counts its groups from the
// relation, so it does not wait for its root's. Each worker reuses one build
// scratch across its tasks. What it returns is private until the caller
// installs it; callers hold the write lock, or own an engine nothing else
// reaches yet.
func (e *Engine) indexRules(ctx context.Context, encoded []core.CFD, ids []int32, held []*core.Root) ([]*lhsIndex, []*core.Root, error) {
	sets := groupByLHS(encoded)
	lists := make([][]core.CFD, len(sets))
	for i, at := range sets {
		lists[i] = make([]core.CFD, len(at))
		for r, p := range at {
			lists[i][r] = encoded[p]
		}
	}
	indexes := make([]*lhsIndex, len(sets))
	var roots, fresh []*core.Root
	byAttr := make(map[int]*core.Root)
	for i, a := range core.PlanRoots(e.rel, lists, ids) {
		if a < 0 {
			indexes[i] = &lhsIndex{core.NewGroupIndex(e.rel, lists[i]), sets[i]}
			continue
		}
		root := byAttr[a]
		if root == nil {
			for _, old := range held {
				if old.Attr() == a {
					root = old
				}
			}
			if root == nil {
				root = core.NewRoot(e.rel, a)
				fresh = append(fresh, root)
			}
			byAttr[a] = root
			roots = append(roots, root)
		}
		indexes[i] = &lhsIndex{core.NewRefinement(root, lists[i]), sets[i]}
	}
	tasks := len(fresh) + len(indexes)
	scratch := make([]core.BuildScratch, min(pool.Normalize(e.workers), tasks))
	err := pool.Each(ctx, e.workers, tasks, func(w, i int) {
		if i < len(fresh) {
			fresh[i].Build(ids, &scratch[w])
			return
		}
		indexes[i-len(fresh)].Build(ids, &scratch[w])
	})
	return indexes, roots, err
}

// groupByLHS partitions rule positions by LHS attribute set, sets in order of
// first appearance and positions ascending within each.
func groupByLHS(encoded []core.CFD) [][]int {
	var groups [][]int
	where := make(map[core.AttrSet]int)
	for i, c := range encoded {
		g, ok := where[c.LHS]
		if !ok {
			g = len(groups)
			where[c.LHS] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// compileRules validates the rules and encodes them against the engine's
// schema and dictionaries. Rule constants are interned into the dictionaries
// up front, so encoding never fails on constants outside the active domain —
// such constants hold codes no tuple carries until a matching value is
// inserted.
func (e *Engine) compileRules(rs []cfd.CFD) ([]core.CFD, error) {
	encoded := make([]core.CFD, len(rs))
	for i, rule := range rs {
		if err := rule.Validate(); err != nil {
			return nil, fmt.Errorf("violation: %w", err)
		}
		rhs, ok := e.schema.Index(rule.RHS)
		if !ok {
			return nil, fmt.Errorf("violation: rule %s: unknown attribute %q", rule, rule.RHS)
		}
		enc := core.CFD{RHS: rhs, Tp: core.NewPattern(e.schema.Arity())}
		for j, name := range rule.LHS {
			a, ok := e.schema.Index(name)
			if !ok {
				return nil, fmt.Errorf("violation: rule %s: unknown attribute %q", rule, name)
			}
			enc.LHS = enc.LHS.Add(a)
			if rule.LHSPattern[j] != cfd.Wildcard {
				enc.Tp[a] = e.rel.Dict(a).Encode(rule.LHSPattern[j])
			}
		}
		if rule.RHSPattern != cfd.Wildcard {
			enc.Tp[rhs] = e.rel.Dict(rhs).Encode(rule.RHSPattern)
		}
		encoded[i] = enc
	}
	return encoded, nil
}

// encode interns one tuple's values through the engine dictionaries. Callers
// must hold the write lock (interning mutates the dictionaries).
func (e *Engine) encode(values []string) ([]int32, error) {
	if len(values) != e.schema.Arity() {
		return nil, fmt.Errorf("violation: tuple has %d values, schema has %d attributes", len(values), e.schema.Arity())
	}
	row := make([]int32, len(values))
	for a, v := range values {
		row[a] = e.rel.Dict(a).Encode(v)
	}
	return row, nil
}

// checkLive returns an ErrNotFound error unless id is a live tuple. Callers
// must hold mu.
func (e *Engine) checkLive(id int) error {
	if !e.rel.Live(id) {
		return fmt.Errorf("violation: tuple %d: %w", id, ErrNotFound)
	}
	return nil
}

// AttachWAL attaches a write-ahead log: from now on every mutation is
// appended to w (under the write lock, after validation) before it is
// applied, and fails without applying if the append fails. Attach the log
// after any initial BulkLoad/restore — bulk loads are not logged; they are
// captured by snapshot compaction instead (see Store.Compact).
//
// A log that exposes its commit sequence (Seq() uint64, as *Store does)
// re-bases the engine's epoch onto it, so from here on epoch N means "the
// state after commit N" in every process that replays the same log — which is
// what lets a delta client resume Changes(since) across a server restart. A
// re-base discards the delta history accumulated under the old numbering; the
// state itself does not change, so a current cached report is kept, re-stamped
// with the new epoch.
func (e *Engine) AttachWAL(w CommitLog) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.wal = w
	s, ok := w.(interface{ Seq() uint64 })
	if !ok {
		return
	}
	seq := s.Seq()
	if seq == e.epoch.Load() {
		return
	}
	e.deltaN = 0
	if rep := e.snap.Load(); rep != nil && rep.Epoch == e.epoch.Load() {
		restamped := *rep
		restamped.Epoch = seq
		e.snap.Store(&restamped)
	} else {
		// A stale report's epoch means nothing under the new numbering.
		e.snap.Store(nil)
	}
	e.setEpochLocked(seq)
}

// Insert adds one tuple (values in schema order) and returns its id. Each
// LHS set's index is updated in O(affected group).
func (e *Engine) Insert(values ...string) (int, error) {
	ids, err := e.ApplyBatch([]Op{{Kind: OpInsert, Values: values}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// Delete removes the tuple with the given id.
func (e *Engine) Delete(id int) error {
	_, err := e.ApplyBatch([]Op{{Kind: OpDelete, ID: id}})
	return err
}

// Update replaces the values of the tuple with the given id, keeping its id.
func (e *Engine) Update(id int, values ...string) error {
	_, err := e.ApplyBatch([]Op{{Kind: OpUpdate, ID: id, Values: values}})
	return err
}

// BulkLoad appends every tuple of the relation, whose attributes must match
// the engine's schema exactly (same names, same order). Index building runs
// one pool task per LHS-set index under the engine's worker budget; the
// resulting state is identical for every worker count. Bulk loads
// are not written to an attached CommitLog; compact a snapshot afterwards
// (Store.Compact) if the load must be durable.
func (e *Engine) BulkLoad(rel *cfd.Relation) error {
	start := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	attrs := rel.Attributes()
	if len(attrs) != e.schema.Arity() {
		return fmt.Errorf("violation: relation has %d attributes, engine schema has %d", len(attrs), e.schema.Arity())
	}
	for a, name := range attrs {
		if e.schema.Name(a) != name {
			return fmt.Errorf("violation: relation attribute %d is %q, engine schema has %q", a, name, e.schema.Name(a))
		}
	}
	dicts, cols := rel.Encoded().Raw()
	e.loadLocked(dicts, cols, rel.Size())
	e.obs().ObserveCommit("bulkload", rel.Size(), time.Since(start).Seconds())
	e.commitBulkLocked(e.epoch.Load() + 1)
	return nil
}

// loadLocked appends rows given in raw form (core.Relation.Raw) at the end of
// the engine's relation — holes stay holes, so row i gets id NextID()+i — and
// lays out and builds the roots and indexes afresh (indexRules) over all the
// live tuples, the loaded ones and any the engine held before. Recoding
// interns into the shared dictionaries, so it runs sequentially; the index
// build carries the real cost and fans out. Callers hold the write lock.
func (e *Engine) loadLocked(dicts [][]string, cols [][]int32, rows int) {
	e.rel.AppendRecoded(dicts, cols, rows, true)
	// context.Background: nothing cancels a load halfway.
	e.indexes, e.roots, _ = e.indexRules(context.Background(), e.encoded, e.liveIDs(), nil)
}

// liveIDs returns the ids of the live tuples, ascending.
func (e *Engine) liveIDs() []int32 {
	ids := make([]int32, 0, e.rel.Count())
	for id := range e.rel.Size() {
		if e.rel.Live(id) {
			ids = append(ids, int32(id))
		}
	}
	return ids
}

// perRule runs read — which returns one value per rule of an index, in the
// index's rule order — over every index, fanned out on the worker pool, and
// files the values under the rules' positions in a table of n rules. Callers
// hold mu.
func perRule[T any](e *Engine, indexes []*lhsIndex, n int, read func(x *lhsIndex) []T) []T {
	perIndex, _ := pool.Map(context.Background(), e.workers, len(indexes), func(_, i int) []T { return read(indexes[i]) })
	out := make([]T, n)
	for i, values := range perIndex {
		for r, v := range values {
			out[indexes[i].at[r]] = v
		}
	}
	return out
}

// violating returns, per rule position of a table of n rules placed by
// indexes, the ascending ids of the tuples violating the rule — nil for a rule
// nothing violates, and for every rule outside want when want is non-nil. It
// walks each index once. Callers hold mu.
func (e *Engine) violating(indexes []*lhsIndex, n int, want []bool) [][]int {
	return perRule(e, indexes, n, func(x *lhsIndex) [][]int {
		var only []bool
		if want != nil {
			only = make([]bool, len(x.at))
			for r, p := range x.at {
				only[r] = want[p]
			}
		}
		return x.Violating(only)
	})
}

// Size returns the number of live tuples.
func (e *Engine) Size() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rel.Count()
}

// NextID returns the id the next sequential insert would be assigned: one
// past the highest id ever assigned (or pinned with Op.At), 0 on an empty
// engine. A cluster coordinator recovers its global id counter as the
// maximum NextID across shards.
func (e *Engine) NextID() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rel.Size()
}

// Epoch returns the engine's mutation epoch: it increases after every
// completed mutation, so two reads at the same epoch observed the same state.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// Rules returns the rules the engine currently serves, in set order. The
// returned slice is never mutated by the engine (SwapRules replaces it
// wholesale); treat it as read-only.
func (e *Engine) Rules() []cfd.CFD {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rules
}

// RuleSet returns the rule set the engine currently serves, with whatever
// provenance it was built or last swapped with (discovery provenance when
// the set came from discovery.Engine.Run). The returned set is a defensive
// copy: mutating it — or swapping the engine's rules afterwards — never
// affects the other side. The CFD values inside it share their LHS slices
// with the original set, which is immutable by contract; treat them as
// read-only.
func (e *Engine) RuleSet() *rules.Set {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return rules.New(e.set.CFDs(), e.set.Provenance())
}

// RulesVersion returns the fingerprint of the rule set the engine currently
// serves (rules.Set.Fingerprint). Unlike RuleSet().Fingerprint() it reuses
// the digest cached on the internal set, so it is cheap enough for health
// endpoints and ETag checks polled per request.
func (e *Engine) RulesVersion() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.set.Fingerprint()
}

// Attributes returns the engine's attribute names in schema order.
func (e *Engine) Attributes() []string { return e.schema.Names() }

// Row returns the values of a live tuple in schema order.
func (e *Engine) Row(id int) ([]string, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkLive(id); err != nil {
		return nil, err
	}
	return e.rel.Row(id), nil
}

// Tuple is one live tuple with its stable id, as listed by Tuples.
type Tuple struct {
	ID     int
	Values []string
}

// Tuples lists live tuples in ascending id order starting at the first live
// id >= start, returning at most limit of them (limit <= 0 lists all). next
// is the id to resume from and more reports whether a live tuple at or beyond
// next exists — the deterministic cursor contract behind GET /v1/tuples: ids
// are stable, so a page boundary survives concurrent mutations.
func (e *Engine) Tuples(start, limit int) (tuples []Tuple, next int, more bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if start < 0 {
		start = 0
	}
	for id := start; id < e.rel.Size(); id++ {
		if !e.rel.Live(id) {
			continue
		}
		if limit > 0 && len(tuples) == limit {
			return tuples, id, true
		}
		tuples = append(tuples, Tuple{ID: id, Values: e.rel.Row(id)})
	}
	return tuples, e.rel.Size(), false
}

// snapshot returns the immutable report for the current epoch, refreshing it
// only when a mutation happened since the last one was published. The refresh
// prefers the incremental path — patching the previous report with the
// merged ring delta since its epoch, O(changes) instead of O(relation) — and
// falls back to the full build when the previous report is too old for the
// bounded delta history (or there is none). The double-checked snapMu keeps a
// stampede of stale readers down to one refresh. The epoch is loaded before
// the report: a bulk commit or re-base publishes its report before the epoch
// it carries, so a current-looking report is never a stale one.
func (e *Engine) snapshot() *Report {
	if epoch, rep := e.epoch.Load(), e.snap.Load(); rep != nil && rep.Epoch == epoch {
		return rep
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	e.mu.RLock()
	// The epoch is stable while the read lock is held: writers move it under
	// the write lock. The rule table is captured here too — a rule swap
	// replaces it wholesale under the write lock.
	epoch, old, ruleTable := e.epoch.Load(), e.snap.Load(), e.rules
	if old != nil {
		if old.Epoch == epoch {
			e.mu.RUnlock()
			return old
		}
		start := time.Now()
		if d, err := e.changesLocked(old.Epoch); err == nil {
			// Ring deltas and reports are immutable once published, so the
			// patch itself can run outside the lock.
			e.mu.RUnlock()
			rep := d.Apply(old, ruleTable)
			// A bulk commit meanwhile published a newer report: keep it.
			e.snap.CompareAndSwap(old, rep)
			e.obs().ObserveSnapshot(true, time.Since(start).Seconds())
			return rep
		}
	}
	defer e.mu.RUnlock()
	rep := e.buildReport(epoch, false)
	e.snap.Store(rep)
	return rep
}

// buildReport is the one full build of the report at epoch: a single walk of
// every index lists the violated rules in rule order, and the dirty list is
// the ids whose dirty refcount is above zero. A bulk commit, which bypasses the
// per-commit deltas that keep the refcounts, passes recount to set them from
// the walk first and holds the write lock; a read holds the read lock. The
// observer sees the build as a snapshot rebuild.
func (e *Engine) buildReport(epoch uint64, recount bool) *Report {
	start := time.Now()
	rep := &Report{Epoch: epoch, RulesChecked: len(e.rules)}
	for i, tuples := range e.violating(e.indexes, len(e.rules), nil) {
		if len(tuples) > 0 {
			rep.Violations = append(rep.Violations, Violation{Rule: e.rules[i], Tuples: tuples})
		}
	}
	if recount {
		e.dirtyRef, e.dirty = make([]int32, e.rel.Size()), 0
		for _, v := range rep.Violations {
			for _, t := range v.Tuples {
				if e.dirtyRef[t]++; e.dirtyRef[t] == 1 {
					e.dirty++
				}
			}
		}
	}
	rep.DirtyTuples = make([]int, 0, e.dirty)
	for t, n := range e.dirtyRef {
		if n > 0 {
			rep.DirtyTuples = append(rep.DirtyTuples, t)
		}
	}
	e.obs().ObserveSnapshot(false, time.Since(start).Seconds())
	return rep
}

// Report returns the current violation state — one Violation per violated
// rule, in rule order, with tuple ids ascending — mirroring the batch report of
// repro/cleaning: on a freshly bulk-loaded relation the two are identical. It
// is a copy of the immutable report published for the current epoch, so it
// stays consistent — and holds no lock — while concurrent mutations proceed.
// The report's slices are shared with the published one; treat them as
// read-only.
func (e *Engine) Report() *Report {
	rep := *e.snapshot()
	return &rep
}

// Dirty returns the sorted union of all violating tuple ids, served from the
// report published for the current epoch. Treat the slice as read-only.
func (e *Engine) Dirty() []int { return e.snapshot().DirtyTuples }

// DirtyCount returns the number of violating tuples — the length of Dirty —
// in O(1), read off the dirty refcounts every commit maintains. It is cheap
// enough for health endpoints polled per request.
func (e *Engine) DirtyCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.dirty
}

// TupleViolations returns the rules the given live tuple currently violates,
// in rule order, as one consistent point-in-time read: one group lookup per
// LHS set, then a compare per violated rule on it.
func (e *Engine) TupleViolations(id int) ([]cfd.CFD, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if err := e.checkLive(id); err != nil {
		return nil, err
	}
	var at []int
	for _, x := range e.indexes {
		x.Violated(id, func(r int) { at = append(at, x.at[r]) })
	}
	sort.Ints(at)
	var out []cfd.CFD
	for _, i := range at {
		out = append(out, e.rules[i])
	}
	return out, nil
}

// Relation materialises the live tuples as a hole-free *cfd.Relation together
// with the engine id of each of its tuples, for handing the current state to
// batch consumers (repair suggestion, re-discovery, export). The copy is one
// consistent point-in-time read with dictionaries of its own: per attribute,
// exactly the values live tuples carry, coded in first-seen order.
func (e *Engine) Relation() (*cfd.Relation, []int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := core.NewRelation(e.schema)
	dicts, cols := e.rel.Raw()
	ids := out.AppendRecoded(dicts, cols, e.rel.Size(), false)
	return cfd.WrapEncoded(out), ids, nil
}
