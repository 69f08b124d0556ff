// Package cfd is the public data model of the library: relations over named
// attributes, conditional functional dependencies written with attribute names
// and string constants, and the satisfaction, violation, support and
// minimality primitives of the paper "Discovering Conditional Functional
// Dependencies" (Fan, Geerts, Li, Xiong).
//
// A CFD (X → A, tp) pairs an embedded functional dependency X → A with a
// pattern tuple tp of constants and the unnamed variable "_" over X ∪ {A}.
// The discovery algorithms of the paper live in the companion package
// repro/discovery; synthetic and CSV data sources in repro/dataset; and the
// data-cleaning application layer in repro/cleaning.
package cfd

import (
	"fmt"

	"repro/internal/core"
)

// Wildcard is the unnamed variable "_" of pattern tuples.
const Wildcard = "_"

// Relation is an instance of a relation schema: an ordered list of attributes
// and a list of tuples. Values are dictionary-encoded internally, so repeated
// values cost one string no matter how many tuples carry them.
type Relation struct {
	inner *core.Relation
}

// NewRelation creates an empty relation over the given attribute names. At
// most 64 attributes are supported.
func NewRelation(attributes ...string) (*Relation, error) {
	schema, err := core.NewSchema(attributes...)
	if err != nil {
		return nil, err
	}
	return &Relation{inner: core.NewRelation(schema)}, nil
}

// MustRelation is like NewRelation but panics on error; intended for tests and
// generators with fixed attribute lists.
func MustRelation(attributes ...string) *Relation {
	r, err := NewRelation(attributes...)
	if err != nil {
		panic(err)
	}
	return r
}

// FromRows builds a relation from attribute names and rows of values.
func FromRows(attributes []string, rows [][]string) (*Relation, error) {
	r, err := NewRelation(attributes...)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if err := r.Append(row...); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return r, nil
}

// Append adds one tuple given in schema order. It is the string path into a
// relation, for generators, tests and callers that hold a row as strings; a
// CSV file is read by dataset.ReadCSV, which interns each field as bytes
// through Encoded() without making it a string first.
func (r *Relation) Append(values ...string) error {
	return r.inner.AppendRow(values)
}

// Size returns the number of tuples.
func (r *Relation) Size() int { return r.inner.Size() }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return r.inner.Arity() }

// Attributes returns the attribute names in schema order.
func (r *Relation) Attributes() []string { return r.inner.Schema().Names() }

// Row returns tuple i as strings in schema order.
func (r *Relation) Row(i int) []string { return r.inner.Row(i) }

// Value returns the value of tuple i for the named attribute.
func (r *Relation) Value(i int, attribute string) (string, error) {
	a, ok := r.inner.Schema().Index(attribute)
	if !ok {
		return "", fmt.Errorf("cfd: unknown attribute %q", attribute)
	}
	return r.inner.ValueString(i, a), nil
}

// DomainSize returns the number of distinct values the named attribute takes.
func (r *Relation) DomainSize(attribute string) (int, error) {
	a, ok := r.inner.Schema().Index(attribute)
	if !ok {
		return 0, fmt.Errorf("cfd: unknown attribute %q", attribute)
	}
	return r.inner.DomainSize(a), nil
}

// Head returns a new relation holding the first n tuples.
func (r *Relation) Head(n int) *Relation {
	return &Relation{inner: r.inner.Head(n)}
}

// Project returns a new relation restricted to the named attributes.
func (r *Relation) Project(attributes ...string) (*Relation, error) {
	keep, err := r.inner.Schema().AttrSetOf(attributes...)
	if err != nil {
		return nil, err
	}
	inner, err := r.inner.Restrict(keep)
	if err != nil {
		return nil, err
	}
	return &Relation{inner: inner}, nil
}

// Encoded exposes the dictionary-encoded representation used by the discovery
// algorithms. It is a bridge for the repro/discovery, repro/dataset and
// repro/cleaning packages; most applications never need it.
func (r *Relation) Encoded() *core.Relation { return r.inner }

// WrapEncoded wraps an encoded relation in the public Relation type. It is the
// inverse bridge of Encoded.
func WrapEncoded(inner *core.Relation) *Relation { return &Relation{inner: inner} }
