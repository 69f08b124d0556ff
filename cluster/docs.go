package cluster

import (
	"bytes"
	"encoding/json"
	"time"

	"repro/internal/jsonw"
	"repro/violation"
)

// The /v1 wire documents (API.md is the prose contract). Each is defined
// once: a node encodes it, ShardClient decodes it, and the coordinator
// re-encodes it, so the two serving modes cannot drift apart. Field order is
// byte order on the wire and part of the contract: most documents are
// alphabetical by key, the ones noted keep their historical order. A field
// only one mode serves is omitted by the other — through a pointer where the
// zero value is a legitimate answer.
//
// The bulk documents — the violations report, its delta, a tuples page, a
// write reply — grow with the data, so they carry an AppendJSON method: a
// hand-written encoder over internal/jsonw that emits what json.Encoder under
// SetIndent("", "  ") emits for the same value, in one pass and without
// reflection. The struct tags stay the definition (ShardClient decodes by
// them, and FuzzWireDocs holds every encoder to them); a field added to one
// of these documents must be added to its encoder. The one bulk request, the
// batch body, has the mirror image: DecodeBatchRequest, held to the struct
// tags by FuzzDecodeOps (package violation).

// ErrorDoc is the envelope of every non-2xx JSON response.
type ErrorDoc struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody carries the stable machine-readable code, a human message that
// is not part of the contract, and the id the request was logged under.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// RuleStatDoc is one rule's live discovery statistics (historical order).
type RuleStatDoc struct {
	Rule       string  `json:"rule"`
	Support    int     `json:"support"`
	Groups     int     `json:"groups"`
	Violating  int     `json:"violating"`
	Confidence float64 `json:"confidence"`
}

// DeltaRingDoc describes the bounded delta history behind ?since= polling.
type DeltaRingDoc struct {
	Capacity       int    `json:"capacity"`
	CompactedReads uint64 `json:"compacted_reads"`
	Evictions      uint64 `json:"evictions"`
	Occupancy      int    `json:"occupancy"`
	Waiters        int    `json:"waiters"`
}

// RemineDoc is the outcome of one remine run: the POST /v1/rules/remine?wait=1
// response and a node's health last_remine — failed runs included, so a
// broken maintenance loop is loud in health rather than leaving the previous
// success on display (historical order).
type RemineDoc struct {
	At      time.Time `json:"at"`
	Outcome string    `json:"outcome"` // swapped | unchanged | error
	Elapsed string    `json:"elapsed"`
	Tuples  int       `json:"tuples"`
	Swapped bool      `json:"swapped"`
	Version string    `json:"version,omitempty"`
	Delta   string    `json:"delta,omitempty"`
	Error   string    `json:"error,omitempty"`
}

// HealthDoc is a node's GET /v1/health. The coordinator reads the counts,
// the rules version and next_id out of it (its own health document is
// ClusterHealth).
type HealthDoc struct {
	Compacting          bool          `json:"compacting"`
	DeltaRing           DeltaRingDoc  `json:"delta_ring"`
	Dirty               int           `json:"dirty"`
	Epoch               uint64        `json:"epoch"`
	LastCompactionError string        `json:"last_compaction_error,omitempty"`
	LastRemine          *RemineDoc    `json:"last_remine,omitempty"`
	Maintain            any           `json:"maintain,omitempty"` // the monitor's own Status document
	NextID              int           `json:"next_id"`
	RemineRunning       bool          `json:"remine_running"`
	RuleStats           []RuleStatDoc `json:"rule_stats"`
	Rules               int           `json:"rules"`
	RulesVersion        string        `json:"rules_version"`
	StateDir            string        `json:"state_dir,omitempty"`
	Status              string        `json:"status"`
	StoreFailed         string        `json:"store_failed,omitempty"` // why the store stopped committing; the reply is then a 503
	Tuples              int           `json:"tuples"`
	Uptime              string        `json:"uptime"`
	WALPending          *int          `json:"wal_pending,omitempty"`
}

// RulesDoc is GET /v1/rules. Ruleset is kept raw so a swap rollback can
// re-PUT the exact document a shard served; Stats is served by nodes only.
type RulesDoc struct {
	Attributes []string        `json:"attributes"`
	Ruleset    json.RawMessage `json:"ruleset"`
	Stats      []RuleStatDoc   `json:"stats,omitzero"`
	Version    string          `json:"version"`
}

// SwapDoc is PUT /v1/rules: a node answers with the rule delta, the
// coordinator with the number of shards the set was committed to.
type SwapDoc struct {
	Delta   *SwapDeltaDoc `json:"delta,omitempty"`
	Rules   int           `json:"rules"`
	Shards  int           `json:"shards,omitempty"`
	Swapped bool          `json:"swapped"` // false when the set was already served
	Version string        `json:"version"`
}

// SwapDeltaDoc is the rules.Delta of a swap.
type SwapDeltaDoc struct {
	Added    []string `json:"added"`
	Removed  []string `json:"removed"`
	Retained int      `json:"retained"`
	Summary  string   `json:"summary"`
}

// RuleTuples is one per-rule entry of a violations report or delta.
type RuleTuples struct {
	Rule   string `json:"rule"`
	Tuples []int  `json:"tuples"`
}

func (rt RuleTuples) encode(w *jsonw.Writer, next, prev *ReportEncoding) {
	w.Open('{')
	w.Key("rule")
	w.String(rt.Rule)
	w.Key("tuples")
	if next == nil {
		jsonw.Ints(w, rt.Tuples)
	} else {
		next.tuples[rt.Rule] = next.list(w, rt.Tuples, prev, prev.tuples[rt.Rule])
	}
	w.Close('}')
}

// encodeRuleTuples writes a per-rule list; nil is null. next and prev are nil
// except under ReportEncoding.Encode.
func encodeRuleTuples(w *jsonw.Writer, v []RuleTuples, next, prev *ReportEncoding) {
	if v == nil {
		w.Null()
		return
	}
	w.Open('[')
	for _, rt := range v {
		w.Elem()
		rt.encode(w, next, prev)
	}
	w.Close(']')
}

// ViolationsDoc is the full GET /v1/violations report: per-rule tuple sets
// in rule-set order with ascending ids, and the sorted dirty union. A node
// stamps it with its Epoch; the coordinator's merged report carries Epochs
// instead, one per shard in shard order (each shard commits on its own WAL).
type ViolationsDoc struct {
	Dirty        []int        `json:"dirty"`
	Epoch        *uint64      `json:"epoch,omitempty"`
	Epochs       []uint64     `json:"epochs,omitempty"`
	NextCursor   string       `json:"next_cursor,omitempty"`
	RulesChecked int          `json:"rules_checked"`
	Violations   []RuleTuples `json:"violations"`
}

// AppendJSON appends the document as writeJSON sends it.
func (d ViolationsDoc) AppendJSON(dst []byte) []byte {
	w := jsonw.Indented(dst)
	d.encode(&w, nil, nil)
	return append(w.Buf, '\n')
}

// ReportEncoding is a full violations report as Encode wrote it: the bytes,
// and where in them each id list sits — the dirty list, and each rule's
// tuples by rule — for the next Encode to copy from. It keeps the lists
// themselves, not copies, so a list of the next report that is the same
// slice is the same list: being referenced, a remembered list cannot have
// been freed and its memory reused for another. Reports are read-only, the
// engine's lists immutable once published.
type ReportEncoding struct {
	JSON []byte
	// Reused and Encoded split the bytes of the id lists of the last Encode:
	// copied from the encoding before it, and written afresh.
	Reused, Encoded int
	dirty           encodedList
	tuples          map[string]encodedList
}

// encodedList is one id list of a report and the byte range of its encoding.
type encodedList struct {
	ids      []int
	from, to int
}

// Encode sets e to doc encoded as AppendJSON encodes it, byte for byte,
// copying from prev — an earlier encoding, possibly the zero value, never e
// itself — every id list doc shares with it, or the leading part of one
// (jsonw.IntsReusing): the dirty list, and each rule's tuples from the list
// prev held for the same rule. Afterwards prev can be reused for the encode
// after this one.
func (e *ReportEncoding) Encode(doc ViolationsDoc, prev *ReportEncoding) {
	if e.tuples == nil {
		e.tuples = make(map[string]encodedList, len(doc.Violations))
	}
	clear(e.tuples)
	e.Reused, e.Encoded = 0, 0
	w := jsonw.Indented(e.JSON[:0])
	doc.encode(&w, e, prev)
	e.JSON = append(w.Buf, '\n')
}

// list writes one id list of the report Encode is writing, after was — the
// list prev held at the same place — and returns where it went.
func (e *ReportEncoding) list(w *jsonw.Writer, ids []int, prev *ReportEncoding, was encodedList) encodedList {
	from := len(w.Buf)
	reused := jsonw.IntsReusing(w, ids, was.ids, prev.JSON[was.from:was.to])
	e.Reused += reused
	e.Encoded += len(w.Buf) - from - reused
	return encodedList{ids, from, len(w.Buf)}
}

// encode writes the document: plainly when next is nil (AppendJSON),
// otherwise recording its lists in next and copying from prev (Encode).
func (d ViolationsDoc) encode(w *jsonw.Writer, next, prev *ReportEncoding) {
	w.Open('{')
	w.Key("dirty")
	if next == nil {
		jsonw.Ints(w, d.Dirty)
	} else {
		next.dirty = next.list(w, d.Dirty, prev, prev.dirty)
	}
	if d.Epoch != nil {
		w.Key("epoch")
		w.Uint(*d.Epoch)
	}
	if len(d.Epochs) > 0 {
		w.Key("epochs")
		jsonw.Ints(w, d.Epochs)
	}
	if d.NextCursor != "" {
		w.Key("next_cursor")
		w.String(d.NextCursor)
	}
	w.Key("rules_checked")
	w.Int(int64(d.RulesChecked))
	w.Key("violations")
	encodeRuleTuples(w, d.Violations, next, prev)
	w.Close('}')
}

// DeltaDoc is one mutation epoch's (or a merged range's) exact change to
// the violation report: the ?since= answer and the payload of every stream
// event. Rules is null unless the range contains a rule swap, and then
// carries the full replacement rule list the added/removed entries are
// relative to, possibly empty (historical order).
type DeltaDoc struct {
	Epoch        uint64       `json:"epoch"`
	Added        []RuleTuples `json:"added"`
	Removed      []RuleTuples `json:"removed"`
	DirtyAdded   []int        `json:"dirty_added"`
	DirtyRemoved []int        `json:"dirty_removed"`
	Rules        []string     `json:"rules"`
}

func (d DeltaDoc) encode(w *jsonw.Writer) {
	w.Open('{')
	w.Key("epoch")
	w.Uint(d.Epoch)
	w.Key("added")
	encodeRuleTuples(w, d.Added, nil, nil)
	w.Key("removed")
	encodeRuleTuples(w, d.Removed, nil, nil)
	w.Key("dirty_added")
	jsonw.Ints(w, d.DirtyAdded)
	w.Key("dirty_removed")
	jsonw.Ints(w, d.DirtyRemoved)
	w.Key("rules")
	w.Strings(d.Rules)
	w.Close('}')
}

// ChangesDoc is GET /v1/violations?since=.
type ChangesDoc struct {
	Delta DeltaDoc `json:"delta"`
	Epoch uint64   `json:"epoch"`
}

// AppendJSON appends the document as writeJSON sends it.
func (d ChangesDoc) AppendJSON(dst []byte) []byte {
	w := jsonw.Indented(dst)
	w.Open('{')
	w.Key("delta")
	d.Delta.encode(&w)
	w.Key("epoch")
	w.Uint(d.Epoch)
	w.Close('}')
	return append(w.Buf, '\n')
}

// SuspectsDoc is GET /v1/suspects.
type SuspectsDoc struct {
	NextCursor string `json:"next_cursor,omitempty"`
	Suspects   []int  `json:"suspects"`
}

// TupleDoc is one tuple with its id.
type TupleDoc struct {
	ID     int      `json:"id"`
	Values []string `json:"values"`
}

// TuplesDoc is one GET /v1/tuples page in ascending id order. Total is the
// live-tuple count at page time; NextCursor is the id of the next live tuple,
// absent on the last page.
type TuplesDoc struct {
	NextCursor string     `json:"next_cursor,omitempty"`
	Total      int        `json:"total"`
	Tuples     []TupleDoc `json:"tuples"`
}

// AppendJSON appends the document as writeJSON sends it.
func (d TuplesDoc) AppendJSON(dst []byte) []byte {
	w := jsonw.Indented(dst)
	w.Open('{')
	if d.NextCursor != "" {
		w.Key("next_cursor")
		w.String(d.NextCursor)
	}
	w.Key("total")
	w.Int(int64(d.Total))
	w.Key("tuples")
	if d.Tuples == nil {
		w.Null()
	} else {
		w.Open('[')
		for _, t := range d.Tuples {
			w.Elem()
			w.Open('{')
			w.Key("id")
			w.Int(int64(t.ID))
			w.Key("values")
			w.Strings(t.Values)
			w.Close('}')
		}
		w.Close(']')
	}
	w.Close('}')
	return append(w.Buf, '\n')
}

// TupleViolationsDoc is GET /v1/tuples/{id}/violations.
type TupleViolationsDoc struct {
	ID       int      `json:"id"`
	Violated []string `json:"violated"`
}

// BatchRequest is the body of POST /v1/batch: ops applied in order as one
// atomic, write-ahead-logged mutation.
type BatchRequest struct {
	Ops []violation.Op `json:"ops"`
}

// DecodeBatchRequest decodes a POST /v1/batch body read whole: what
// json.NewDecoder(body).Decode makes of it, result and error — the first JSON
// value decoded by the struct tags above, bytes after it ignored. A body as
// ShardClient sends it (json.Marshal of a BatchRequest: compact, exact keys,
// ending with the document) is read in one pass and without reflection; any
// other goes to that call as it stands.
func DecodeBatchRequest(body []byte) (BatchRequest, error) {
	if req, ok := readBatchRequest(body); ok {
		return req, nil
	}
	var req BatchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, err
}

// readBatchRequest reads a body that is plain JSON; false for any other.
func readBatchRequest(body []byte) (BatchRequest, bool) {
	r := jsonw.Read(body)
	var req BatchRequest
	var seen uint32
	for r.Open('{'); r.More('}'); {
		if r.Key(&seen, "ops") == "ops" {
			req.Ops = violation.ReadOps(&r)
		}
	}
	return req, r.Plain()
}

// WriteDoc is POST /v1/tuples and POST /v1/batch: the ids assigned to the
// inserts, in op order. Applied is the batch's op count; a node adds its
// post-commit Tuples and Dirty counts, the coordinator (whose shards each
// know only their own) omits them.
type WriteDoc struct {
	Applied int   `json:"applied,omitempty"`
	Dirty   *int  `json:"dirty,omitempty"`
	IDs     []int `json:"ids"`
	Tuples  *int  `json:"tuples,omitempty"`
}

// AppendJSON appends the document as writeJSON sends it.
func (d WriteDoc) AppendJSON(dst []byte) []byte {
	w := jsonw.Indented(dst)
	w.Open('{')
	if d.Applied != 0 {
		w.Key("applied")
		w.Int(int64(d.Applied))
	}
	if d.Dirty != nil {
		w.Key("dirty")
		w.Int(int64(*d.Dirty))
	}
	w.Key("ids")
	jsonw.Ints(&w, d.IDs)
	if d.Tuples != nil {
		w.Key("tuples")
		w.Int(int64(*d.Tuples))
	}
	w.Close('}')
	return append(w.Buf, '\n')
}

// TupleWriteDoc is PUT and DELETE /v1/tuples/{id}; the counts as in WriteDoc.
type TupleWriteDoc struct {
	Dirty  *int `json:"dirty,omitempty"`
	ID     int  `json:"id"`
	Tuples *int `json:"tuples,omitempty"`
}
