package core

import (
	"fmt"
	"slices"
)

// Absent is the code of a hole: a tuple slot that holds no tuple (deleted,
// or opened below a pinned insert). It can never collide with a real code —
// dictionary codes are dense from 0.
const Absent int32 = -1

// Relation is a dictionary-encoded instance of a Schema and the repo's one
// columnar tuple store. Values are stored column-major: Column(a)[t] is the
// code of tuple t's value for attribute a, so a tuple costs arity × 4 bytes
// and bulk operations are tight integer loops.
//
// Relations built with AppendRow (CSV loads, generators) are dense: slot t is
// tuple t. The violation engine additionally uses slots as stable tuple ids
// and therefore punches holes (Grow, Set, Clear): a hole holds Absent on
// every column, and liveness is read from column 0, so the hole operations
// need at least one attribute. A relation with holes never leaves the engine
// — the miners, repro/cleaning and every other consumer iterate 0..Size and
// only ever see hole-free relations (see AppendRecoded, which compacts).
type Relation struct {
	schema *Schema
	cols   [][]int32
	dicts  []*Dict
	size   int // slots, holes included
	live   int // slots holding a tuple
}

// NewRelation returns an empty relation over the given schema.
func NewRelation(schema *Schema) *Relation {
	n := schema.Arity()
	r := &Relation{
		schema: schema,
		cols:   make([][]int32, n),
		dicts:  make([]*Dict, n),
	}
	for i := 0; i < n; i++ {
		r.cols[i] = []int32{} // never nil: Raw is what snapshots serialise
		r.dicts[i] = NewDict()
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return r.schema.Arity() }

// Size returns the number of tuple slots, holes included; for a hole-free
// relation that is the number of tuples.
func (r *Relation) Size() int { return r.size }

// Count returns the number of tuples (slots that are not holes).
func (r *Relation) Count() int { return r.live }

// AppendRow appends one tuple given as strings in schema order, encoding each
// value through the per-attribute dictionary.
func (r *Relation) AppendRow(values []string) error {
	if len(values) != r.Arity() {
		return fmt.Errorf("core: row has %d values, schema has %d attributes", len(values), r.Arity())
	}
	for a, v := range values {
		r.cols[a] = append(r.cols[a], r.dicts[a].Encode(v))
	}
	r.size++
	r.live++
	return nil
}

// AppendRowBytes is AppendRow for a tuple whose values are held as bytes (a
// line of a read buffer); the values are not retained.
func (r *Relation) AppendRowBytes(values [][]byte) error {
	if len(values) != r.Arity() {
		return fmt.Errorf("core: row has %d values, schema has %d attributes", len(values), r.Arity())
	}
	for a, v := range values {
		r.cols[a] = append(r.cols[a], r.dicts[a].EncodeBytes(v))
	}
	r.size++
	r.live++
	return nil
}

// Reserve makes room for n more rows. A column that has to move at least
// doubles, so a loader that reserves buffer by buffer copies each column
// O(1) times per row however many buffers the input takes.
func (r *Relation) Reserve(n int) {
	for a, col := range r.cols {
		if cap(col)-len(col) < n {
			r.cols[a] = append(make([]int32, 0, max(len(col)+n, 2*cap(col))), col...)
		}
	}
}

// Live reports whether slot t exists and holds a tuple.
func (r *Relation) Live(t int) bool {
	return t >= 0 && t < r.size && r.cols[0][t] != Absent
}

// Grow appends n holes.
func (r *Relation) Grow(n int) {
	for a := range r.cols {
		r.cols[a] = slices.Grow(r.cols[a], n)
		for i := 0; i < n; i++ {
			r.cols[a] = append(r.cols[a], Absent)
		}
	}
	r.size += n
}

// Set writes an encoded row (codes of r's own dictionaries) into the existing
// slot t, filling a hole or replacing the tuple there.
func (r *Relation) Set(t int, row []int32) {
	if r.cols[0][t] == Absent {
		r.live++
	}
	for a := range r.cols {
		r.cols[a][t] = row[a]
	}
}

// Clear turns the tuple at slot t into a hole.
func (r *Relation) Clear(t int) {
	for a := range r.cols {
		r.cols[a][t] = Absent
	}
	r.live--
}

// Gather copies the encoded row at slot t into dst, which must have arity
// length.
func (r *Relation) Gather(t int, dst []int32) {
	for a := range r.cols {
		dst[a] = r.cols[a][t]
	}
}

// Raw returns the relation in raw form: per attribute, the dictionary values
// in code order and the code column. It is what AppendRecoded consumes and
// what snapshot format 2 stores. The outer slices are fresh, the inner ones
// are r's storage and must not be modified; dictionaries only ever append, so
// the returned dictionary slices stay valid while r keeps growing.
func (r *Relation) Raw() (dicts [][]string, cols [][]int32) {
	dicts = make([][]string, len(r.dicts))
	for a, d := range r.dicts {
		dicts[a] = d.values
	}
	return dicts, slices.Clone(r.cols)
}

// AppendRecoded appends the first rows rows of another relation — given in
// raw form (see Raw) over the same attributes, under any dictionaries — with
// every code translated into r's dictionaries. It is the one primitive that
// moves tuples between dictionaries: a source value is interned into r the
// first time a row carrying it is appended, scanning each column in row
// order, through a per-attribute code→code table. That costs O(distinct
// values) string work — none at all into an empty r, whose dictionaries
// defer their index — followed by an integer loop per column; into an empty r
// it yields codes in first-use order, and dictionary entries no appended row
// carries are never interned.
//
// With keepHoles the source's holes are appended as holes, so source row i
// lands at slot Size()+i, and nil is returned. Otherwise holes are skipped
// and the result lists the source index of every appended row. The raw form
// must be well-formed: no value twice in a dictionary, codes inside their
// dictionary, holes on every column at once.
func (r *Relation) AppendRecoded(dicts [][]string, cols [][]int32, rows int, keepHoles bool) []int {
	if len(cols) == 0 { // no attributes: rows carry no values and cannot be holes
		r.size += rows
		r.live += rows
		return nil
	}
	live := 0
	for _, c := range cols[0][:rows] {
		if c != Absent {
			live++
		}
	}
	n, kept := rows, []int(nil)
	if !keepHoles {
		n, kept = live, make([]int, 0, live)
		for i, c := range cols[0][:rows] {
			if c != Absent {
				kept = append(kept, i)
			}
		}
	}
	for a, dict := range r.dicts {
		trans := make([]int32, len(dicts[a])) // source code → r's code, Absent until first use
		for c := range trans {
			trans[c] = Absent
		}
		intern := dict.Encode
		if dict.slots == nil && len(dict.values) == 0 {
			// A fresh destination: a well-formed source dictionary holds each
			// value once, so every first use is a new value — append it
			// unhashed and leave the index to Dict.index, should anyone ask.
			intern = func(v string) int32 {
				dict.values = append(dict.values, v)
				return int32(len(dict.values) - 1)
			}
		}
		recode := func(c int32) int32 {
			if c == Absent {
				return Absent
			}
			if trans[c] == Absent {
				trans[c] = intern(dicts[a][c])
			}
			return trans[c]
		}
		col := slices.Grow(r.cols[a], n)
		if keepHoles {
			for _, c := range cols[a][:rows] {
				col = append(col, recode(c))
			}
		} else {
			for _, i := range kept {
				col = append(col, recode(cols[a][i]))
			}
		}
		r.cols[a] = col
	}
	r.size += n
	r.live += live
	return kept
}

// Value returns the encoded value of tuple t for attribute a.
func (r *Relation) Value(t, a int) int32 { return r.cols[a][t] }

// ValueString returns the original string value of tuple t for attribute a.
func (r *Relation) ValueString(t, a int) string { return r.dicts[a].Value(r.cols[a][t]) }

// Column returns the encoded column of attribute a. The returned slice is the
// relation's backing storage and must not be modified.
func (r *Relation) Column(a int) []int32 { return r.cols[a] }

// Dict returns the dictionary of attribute a.
func (r *Relation) Dict(a int) *Dict { return r.dicts[a] }

// DomainSize returns the active-domain size of attribute a.
func (r *Relation) DomainSize(a int) int { return r.dicts[a].Size() }

// Row returns tuple t decoded to strings in schema order.
func (r *Relation) Row(t int) []string {
	out := make([]string, r.Arity())
	for a := range out {
		out[a] = r.ValueString(t, a)
	}
	return out
}

// CodedRow returns tuple t as encoded values in schema order.
func (r *Relation) CodedRow(t int) []int32 {
	out := make([]int32, r.Arity())
	for a := range out {
		out[a] = r.cols[a][t]
	}
	return out
}

// Restrict returns a new relation over a schema containing only the attributes
// in keep (in ascending attribute order), with all tuples re-encoded. It is
// used to build lower-arity projections of generated datasets.
func (r *Relation) Restrict(keep AttrSet) (*Relation, error) {
	attrs := keep.Attrs()
	names := make([]string, len(attrs))
	dicts, cols := make([][]string, len(attrs)), make([][]int32, len(attrs))
	for i, a := range attrs {
		if a >= r.Arity() {
			return nil, fmt.Errorf("%w: attribute index %d", ErrUnknownAttr, a)
		}
		names[i], dicts[i], cols[i] = r.schema.Name(a), r.dicts[a].values, r.cols[a]
	}
	schema, err := NewSchema(names...)
	if err != nil {
		return nil, err
	}
	out := NewRelation(schema)
	out.AppendRecoded(dicts, cols, r.size, true)
	return out, nil
}

// Head returns a new relation containing the first n tuples of r (or all of r
// if n exceeds its size). It is used by the benchmark harness to sweep DBSIZE
// from a single generated dataset.
func (r *Relation) Head(n int) *Relation {
	out := NewRelation(r.schema)
	dicts, cols := r.Raw()
	out.AppendRecoded(dicts, cols, max(0, min(n, r.size)), true)
	return out
}

// MatchingTuples returns the tuple indexes whose values match the constants of
// pattern p on the attributes X. Wildcard entries match every value. The empty
// attribute set matches all tuples.
func (r *Relation) MatchingTuples(X AttrSet, p Pattern) []int32 {
	out := make([]int32, 0, r.size)
	attrs := X.Attrs()
	for t := 0; t < r.size; t++ {
		ok := true
		for _, a := range attrs {
			if p[a] != Wildcard && r.cols[a][t] != p[a] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, int32(t))
		}
	}
	return out
}

// CountMatching returns the number of tuples matching the constants of pattern
// p on the attributes X.
func (r *Relation) CountMatching(X AttrSet, p Pattern) int {
	n := 0
	attrs := X.Attrs()
	for t := 0; t < r.size; t++ {
		ok := true
		for _, a := range attrs {
			if p[a] != Wildcard && r.cols[a][t] != p[a] {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}
