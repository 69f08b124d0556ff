package cluster

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"

	"repro/violation"
)

// owner locates the shard holding a live tuple id by scattering the point
// read. A definite miss everywhere is a 404 *APIError; an unreachable shard
// makes the answer unknowable and fails closed.
func (c *Cluster) owner(ctx context.Context, id int) (int, TupleDoc, error) {
	type hit struct {
		shard int
		doc   TupleDoc
	}
	var (
		mu    sync.Mutex
		found *hit
	)
	err := c.scatter("tuples", func(i int, s *ShardClient) error {
		doc, err := s.GetTuple(ctx, id)
		if err == nil {
			mu.Lock()
			found = &hit{shard: i, doc: doc}
			mu.Unlock()
			return nil
		}
		var api *APIError
		if errors.As(err, &api) && api.Status == http.StatusNotFound {
			return nil // a definite "not mine"
		}
		return err
	})
	if found != nil {
		// The owner answered; another shard being down cannot change the
		// answer (every id lives on exactly one shard).
		return found.shard, found.doc, nil
	}
	if err != nil {
		return 0, TupleDoc{}, err
	}
	return 0, TupleDoc{}, coordErr(http.StatusNotFound, CodeNotFound, "violation: tuple %d: tuple not found", id)
}

// Get reads one tuple by global id.
func (c *Cluster) Get(ctx context.Context, id int) (TupleDoc, error) {
	_, doc, err := c.owner(ctx, id)
	return doc, err
}

// TupleViolations reads the rules one tuple currently violates.
func (c *Cluster) TupleViolations(ctx context.Context, id int) (TupleViolationsDoc, error) {
	shard, _, err := c.owner(ctx, id)
	if err != nil {
		return TupleViolationsDoc{}, err
	}
	return c.shards[shard].TupleViolations(ctx, id)
}

// checkArity validates rows against the schema before any id is consumed or
// any shard touched, mirroring the single node's all-or-nothing validation.
func (c *Cluster) checkArity(rows [][]string) error {
	arity := len(c.Schema())
	for _, row := range rows {
		if len(row) != arity {
			return coordErr(http.StatusUnprocessableEntity, CodeUnprocessable,
				"violation: tuple has %d values, schema has %d attributes", len(row), arity)
		}
	}
	return nil
}

// Insert routes rows to their owning shards, assigning global ids in row
// order exactly like a single node, and applies one atomic pinned batch per
// shard, in ascending shard order. A failure rolls the already-inserted rows
// back (deleting them from their shards); the burned ids are never reused. A
// coordinator crash mid-insert can leave a multi-shard insert partially
// applied — per-shard batches are atomic, the cross-shard composition is not.
func (c *Cluster) Insert(ctx context.Context, rows [][]string) (WriteDoc, error) {
	if err := c.checkArity(rows); err != nil {
		return WriteDoc{}, err
	}
	part := c.partitioner()
	base := int(c.nextID.Add(int64(len(rows)))) - len(rows)
	ids := make([]int, len(rows))
	perShard := make([][]violation.Op, len(c.shards))
	for r, row := range rows {
		id := base + r
		ids[r] = id
		shard := part.Route(row, len(c.shards))
		at := id
		perShard[shard] = append(perShard[shard], violation.Op{Kind: violation.OpInsert, Values: row, At: &at})
	}
	for shard, ops := range perShard {
		if len(ops) == 0 {
			continue
		}
		if _, err := c.shards[shard].Batch(ctx, ops); err != nil {
			c.rollbackInserts(ctx, perShard[:shard])
			return WriteDoc{}, err
		}
	}
	return WriteDoc{IDs: ids}, nil
}

// rollbackInserts deletes the rows of the per-shard insert batches that
// landed, landed[i] being shard i's — best effort; a failure leaves orphans
// that a re-run of the failed insert cannot collide with (their ids are
// burned).
func (c *Cluster) rollbackInserts(ctx context.Context, landed [][]violation.Op) {
	for shard, inserts := range landed {
		if len(inserts) == 0 {
			continue
		}
		ops := make([]violation.Op, len(inserts))
		for i, op := range inserts {
			ops[i] = violation.Op{Kind: violation.OpDelete, ID: *op.At}
		}
		if _, err := c.shards[shard].Batch(ctx, ops); err != nil && c.obs != nil {
			c.obs.ObserveScatterError("rollback")
		}
	}
}

// Batch applies a mixed op sequence in order. Consecutive ops for the same
// shard coalesce into one atomic shard batch (one WAL record there); the
// cross-shard sequence is applied group by group and is NOT atomic — a
// failure leaves the already-flushed prefix applied. A refusal of the
// coordinator's own names the op by its index in ops; a failed shard commit
// returns that shard's error, whose "batch op i" counts within the shard's
// own sub-batch. Inserts are assigned global ids in op order, identical to a
// single node fed the same sequence; explicit "at" pins are refused (ids
// are the coordinator's to assign). Deletes and updates of ids assigned
// earlier in the same batch are resolved locally, so the usual
// insert-then-refine batches need no extra shard reads.
//
// Batch is the coordinator's one write path for existing ids — PUT and DELETE
// /v1/tuples/{id} are one-op batches. An id lives on one shard from its insert
// to its delete: an update that changes the id's partition-key values is
// refused with 409 key_change, after the ops before it are applied and before
// anything of it or the ops after it is sent (the client deletes the tuple and
// re-inserts it). So locating an id and applying an op to it need no lock: the
// op is one atomic commit on the one owner, and a delete that raced in between
// makes it a 404 there.
func (c *Cluster) Batch(ctx context.Context, ops []violation.Op) (WriteDoc, error) {
	// Validate before consuming ids: op kinds, arity, no pins.
	for i, op := range ops {
		switch op.Kind {
		case violation.OpInsert:
			if op.At != nil {
				return WriteDoc{}, coordErr(http.StatusUnprocessableEntity, CodeUnprocessable,
					"batch op %d: the coordinator assigns ids; \"at\" is not accepted", i)
			}
			if err := c.checkArity([][]string{op.Values}); err != nil {
				return WriteDoc{}, err
			}
		case violation.OpUpdate:
			if err := c.checkArity([][]string{op.Values}); err != nil {
				return WriteDoc{}, err
			}
		case violation.OpDelete:
		default:
			return WriteDoc{}, coordErr(http.StatusUnprocessableEntity, CodeUnprocessable,
				"batch op %d: violation: unknown op kind %q", i, op.Kind)
		}
	}

	part := c.partitioner()
	res := WriteDoc{Applied: len(ops)}
	// placed is where an id this batch inserted or located lives, and values
	// it had there: only their partition key is read, which no applied update
	// changes.
	type placed struct {
		shard  int
		values []string
	}
	owners := make(map[int]placed)
	var pending []violation.Op
	pendingShard := -1
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		_, err := c.shards[pendingShard].Batch(ctx, pending)
		pending, pendingShard = nil, -1
		return err
	}
	enqueue := func(shard int, op violation.Op) error {
		if pendingShard != shard {
			if err := flush(); err != nil {
				return err
			}
			pendingShard = shard
		}
		pending = append(pending, op)
		return nil
	}
	locate := func(id int) (placed, error) {
		if p, ok := owners[id]; ok {
			return p, nil
		}
		// The id predates this batch; ops touching it so far are flushed
		// before the scatter read so the read observes them.
		if err := flush(); err != nil {
			return placed{}, err
		}
		shard, doc, err := c.owner(ctx, id)
		if err != nil {
			return placed{}, err
		}
		owners[id] = placed{shard, doc.Values}
		return owners[id], nil
	}
	for i, op := range ops {
		switch op.Kind {
		case violation.OpInsert:
			id := int(c.nextID.Add(1)) - 1
			shard := part.Route(op.Values, len(c.shards))
			at := id
			if err := enqueue(shard, violation.Op{Kind: violation.OpInsert, Values: op.Values, At: &at}); err != nil {
				return res, err
			}
			owners[id] = placed{shard, op.Values}
			res.IDs = append(res.IDs, id)
		case violation.OpDelete, violation.OpUpdate:
			p, err := locate(op.ID)
			if err != nil {
				return res, err
			}
			if op.Kind == violation.OpUpdate && !part.sameKey(p.values, op.Values) {
				if err := flush(); err != nil {
					return res, err
				}
				return res, coordErr(http.StatusConflict, CodeKeyChange,
					"batch op %d: the update changes tuple %d's partition key [%s]; delete the tuple and insert it again",
					i, op.ID, strings.Join(part.Key(), ", "))
			}
			if err := enqueue(p.shard, op); err != nil {
				return res, err
			}
		}
	}
	return res, flush()
}
