package violation

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/jsonw"
)

// OpKind names a mutation kind. The string values are the wire form used by
// the JSONL write-ahead log and by cmd/cfdserve's POST /batch body.
type OpKind string

const (
	OpInsert OpKind = "insert"
	OpDelete OpKind = "delete"
	OpUpdate OpKind = "update"
)

// Op is one mutation of the engine's tuple set. Insert carries Values only
// (the id is assigned on apply, or pinned by At); Delete carries ID; Update
// carries both.
type Op struct {
	Kind   OpKind   `json:"op"`
	ID     int      `json:"id,omitempty"`
	Values []string `json:"values,omitempty"`
	// At pins an insert to an explicit id instead of the next sequential one.
	// The id must not be live; ids between the current end of the row table
	// and At become unassigned holes (exactly like ids freed by Delete), and
	// the next sequential insert continues after the highest id ever pinned.
	// This is how a cluster coordinator keeps globally assigned ids stable on
	// the owning shard; single-node clients normally leave it nil. A pin more
	// than DefaultMaxPinGap ids past the current end is rejected — each hole
	// keeps a row-table slot, so the gap is an allocation the op commands.
	At *int `json:"at,omitempty"`
}

// opJSON is the wire form as encoding/json decodes it: id is a pointer so
// decoding can tell "id":0 apart from a missing id — without that, a delete op
// with the field omitted would silently target tuple 0.
type opJSON struct {
	Kind   OpKind   `json:"op"`
	ID     *int     `json:"id,omitempty"`
	Values []string `json:"values,omitempty"`
	At     *int     `json:"at,omitempty"`
}

// appendOp writes the wire form of an op, the one a WAL record and a
// coordinator's batch body carry: the id only for the kinds that address a
// tuple, so insert records stay free of a meaningless "id":0, "at" only for
// inserts that pin one, and no empty "values". It is json.Marshal of the
// opJSON those rules fill, byte for byte (TestOpWireForm).
func appendOp(w *jsonw.Writer, o Op) {
	w.Open('{')
	w.Key("op")
	w.String(string(o.Kind))
	if o.Kind == OpDelete || o.Kind == OpUpdate {
		w.Key("id")
		w.Int(int64(o.ID))
	}
	if len(o.Values) > 0 {
		w.Key("values")
		w.Strings(o.Values)
	}
	if o.Kind == OpInsert && o.At != nil {
		w.Key("at")
		w.Int(int64(*o.At))
	}
	w.Close('}')
}

// MarshalJSON emits the wire form (appendOp).
func (o Op) MarshalJSON() ([]byte, error) {
	w := jsonw.Compact(nil)
	appendOp(&w, o)
	return w.Buf, nil
}

// UnmarshalJSON rejects delete/update ops without an explicit "id": the
// zero id is a real tuple, and a client omitting the field must get an
// error, not a deletion of tuple 0. An "at" is only meaningful on insert.
func (o *Op) UnmarshalJSON(data []byte) error {
	var raw opJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	o.Kind, o.Values, o.ID, o.At = raw.Kind, raw.Values, 0, nil
	if raw.ID != nil {
		o.ID = *raw.ID
	} else if raw.Kind == OpDelete || raw.Kind == OpUpdate {
		return fmt.Errorf("violation: %s op requires an \"id\"", raw.Kind)
	}
	if raw.At != nil {
		if raw.Kind != OpInsert {
			return fmt.Errorf("violation: %s op does not take \"at\"", raw.Kind)
		}
		at := *raw.At
		o.At = &at
	}
	return nil
}

// ReadOps reads an array of ops in their wire form at the reader's cursor:
// what json.Unmarshal into a []Op makes of the same bytes, whenever they are
// plain in the reader's sense and every op passes UnmarshalJSON's two rules —
// and a failed reader otherwise, for the caller to hand its whole document to
// encoding/json, which words the error (FuzzDecodeOps holds the two together).
// The batch body, in package cluster, and the WAL record share it.
func ReadOps(r *jsonw.Reader) []Op {
	ops := []Op{}
	for r.Open('['); r.More(']'); {
		var op Op
		var seen uint32
		var hasID, hasAt bool
		for r.Open('{'); r.More('}'); {
			switch r.Key(&seen, "op", "id", "values", "at") {
			case "op":
				op.Kind = OpKind(r.String())
			case "id":
				op.ID, hasID = r.Int(), true
			case "values":
				op.Values = r.Strings()
			case "at":
				at := r.Int()
				op.At, hasAt = &at, true
			}
		}
		if addressed := op.Kind == OpDelete || op.Kind == OpUpdate; (addressed && !hasID) || (hasAt && op.Kind != OpInsert) {
			r.Fail()
		}
		ops = append(ops, op)
	}
	return ops
}

// resolvedOp is one validated op: the tuple it addresses and, for an insert
// or update, the encoded row it writes. The row a delete or update removes is
// the one the relation holds when the op is applied.
type resolvedOp struct {
	kind OpKind
	id   int
	row  []int32
}

// ApplyBatch applies the ops in order as one atomic mutation: either every op
// is validated and applied, or none is and the first offending op's error is
// returned. The returned slice holds the assigned id of each insert op, in
// op order. Ops may refer to ids created or deleted earlier in the same
// batch.
//
// A batch amortises what a loop over Insert/Delete/Update pays per call: one
// write-lock acquisition, one snapshot invalidation and one write-ahead-log
// append (and, for a Store opened with Sync, one fsync — the group commit
// that dominates durable ingest throughput). Its ops are then applied one
// after another, exactly as that loop would apply them.
func (e *Engine) ApplyBatch(ops []Op) ([]int, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	obs := e.obs()
	var obsStart time.Time
	if obs != nil {
		obsStart = time.Now()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	resolved, ids, err := e.resolve(ops)
	if err != nil {
		return nil, err
	}
	if e.wal != nil {
		if err := e.wal.Append(ops); err != nil {
			return nil, fmt.Errorf("violation: %w: %w", ErrWAL, err)
		}
	}
	e.apply(resolved)
	e.bumpLocked()
	if obs != nil {
		kind := "batch"
		if len(ops) == 1 {
			kind = string(ops[0].Kind)
		}
		obs.ObserveCommit(kind, len(ops), time.Since(obsStart).Seconds())
	}
	return ids, nil
}

// resolve validates the ops in order against the current state plus the
// pending effect of the earlier ops of the same batch, and encodes the rows
// they write. It mutates nothing but the interning dictionaries. Callers must
// hold the write lock.
func (e *Engine) resolve(ops []Op) ([]resolvedOp, []int, error) {
	resolved := make([]resolvedOp, 0, len(ops))
	var ids []int
	// pending records, for each id an earlier insert or delete of this batch
	// addressed, whether the tuple is live after it. end is the
	// virtual end of the row table including pending inserts (sequential
	// inserts extend it by one; pinned inserts may jump it forward).
	var pending map[int]bool
	end := e.rel.Size()
	live := func(id int) bool {
		if l, ok := pending[id]; ok {
			return l
		}
		return e.rel.Live(id) // pending insert ids are always in pending
	}
	setLive := func(id int, l bool) {
		if pending == nil {
			pending = make(map[int]bool)
		}
		pending[id] = l
	}
	fail := func(i int, err error) ([]resolvedOp, []int, error) {
		if len(ops) > 1 {
			// The inner error already carries the package prefix.
			err = fmt.Errorf("batch op %d: %w", i, err)
		}
		return nil, nil, err
	}
	for i, op := range ops {
		switch op.Kind {
		case OpInsert:
			row, err := e.encode(op.Values)
			if err != nil {
				return fail(i, err)
			}
			id := end
			if op.At != nil {
				id = *op.At
			}
			if id < 0 {
				return fail(i, fmt.Errorf("violation: insert at negative id %d", id))
			}
			// Index group members store the id in one 32-bit word; an id
			// beyond that space, pinned or sequential, must fail validation
			// before the WAL append, not alias another id.
			if uint64(id) > e.maxID {
				return fail(i, fmt.Errorf("violation: insert at id %d outside the 32-bit id space", id))
			}
			if op.At != nil {
				// Every id below the pin keeps a row-table slot, so the gap it
				// opens is an allocation the caller commands; bound it here, in
				// validation, so an oversized pin fails the whole batch before
				// the WAL append and is never logged (a logged pin would grow
				// the table again on every replay).
				if gap := id - end; gap > e.maxPinGap {
					return fail(i, fmt.Errorf("violation: insert at id %d opens %d unassigned ids past the current end %d, above the %d limit", id, gap, end, e.maxPinGap))
				}
				if live(id) {
					return fail(i, fmt.Errorf("violation: insert at id %d: tuple exists", id))
				}
			}
			if id >= end {
				end = id + 1
			}
			setLive(id, true)
			resolved = append(resolved, resolvedOp{kind: OpInsert, id: id, row: row})
			ids = append(ids, id)
		case OpDelete:
			if !live(op.ID) {
				return fail(i, fmt.Errorf("violation: tuple %d: %w", op.ID, ErrNotFound))
			}
			setLive(op.ID, false)
			resolved = append(resolved, resolvedOp{kind: OpDelete, id: op.ID})
		case OpUpdate:
			if !live(op.ID) {
				return fail(i, fmt.Errorf("violation: tuple %d: %w", op.ID, ErrNotFound))
			}
			row, err := e.encode(op.Values)
			if err != nil {
				return fail(i, err)
			}
			resolved = append(resolved, resolvedOp{kind: OpUpdate, id: op.ID, row: row})
		default:
			return fail(i, fmt.Errorf("violation: unknown op kind %q", op.Kind))
		}
	}
	return resolved, ids, nil
}

// apply commits resolved ops in order, keeping a tuple's row in the relation
// exactly while every LHS-set index holds it: an insert writes its row, then
// indexes it; a delete unindexes the tuple, then clears its row; an update
// unindexes the old row, writes the new one, then indexes it. So an index
// reads every code from the relation as of the op it applies: the rows of
// the batch's earlier ops are already there, its later ops' not yet.
// The work must run to completion to keep the state consistent, so it is not
// cancellable. Each index reports the violating-set memberships it flips,
// rule by rule (the observe hook of core.GroupIndex); the per-rule flips,
// folded so that a tuple leaving and re-entering within the batch cancels,
// become the commit's Delta. Callers must hold the write lock.
func (e *Engine) apply(resolved []resolvedOp) {
	changes := make([]map[int]int8, len(e.rules))
	var x *lhsIndex // the index being maintained
	observe := func(r, id int, violating bool) {
		m := changes[x.at[r]]
		if m == nil {
			m = make(map[int]int8)
			changes[x.at[r]] = m
		}
		sign := int8(-1)
		if violating {
			sign = 1
		}
		// Memberships alternate, so an opposite pending flip cancels.
		if m[id] == -sign {
			delete(m, id)
		} else {
			m[id] = sign
		}
	}
	for _, r := range resolved {
		if r.kind != OpInsert {
			for _, x = range e.indexes {
				x.Delete(r.id, observe)
			}
		}
		if r.kind == OpDelete {
			e.rel.Clear(r.id)
			continue
		}
		if n := r.id + 1 - e.rel.Size(); n > 0 {
			e.rel.Grow(n)
		}
		e.rel.Set(r.id, r.row)
		for _, x = range e.indexes {
			x.Insert(r.id, observe)
		}
	}
	added, removed := e.foldChanges(changes)
	e.recordDelta(added, removed, nil)
}

// foldChanges turns per-rule-position membership flips into the per-rule
// Added/Removed entries of a Delta, in rule order. Callers must hold the
// write lock.
func (e *Engine) foldChanges(changes []map[int]int8) (added, removed []Violation) {
	for i, m := range changes {
		if len(m) == 0 {
			continue
		}
		var add, rem []int
		for id, sign := range m {
			if sign > 0 {
				add = append(add, id)
			} else {
				rem = append(rem, id)
			}
		}
		sort.Ints(add)
		sort.Ints(rem)
		if len(add) > 0 {
			added = append(added, Violation{Rule: e.rules[i], Tuples: add})
		}
		if len(rem) > 0 {
			removed = append(removed, Violation{Rule: e.rules[i], Tuples: rem})
		}
	}
	return added, removed
}
