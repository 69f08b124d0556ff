package core

import "sync"

// Dict is a per-attribute dictionary mapping attribute values (strings) to dense
// int32 codes and back. Codes are assigned in first-seen order starting at 0.
type Dict struct {
	values []string
	// codes is the value → code index. It is built on the first Encode or
	// Lookup, not before: a dictionary filled by Relation.AppendRecoded and
	// only ever decoded (a snapshot capture, a relation handed to code that
	// works on codes alone) never pays for hashing its values.
	once  sync.Once
	codes map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	// values is never nil: it is serialised as part of Relation.Raw.
	return &Dict{values: []string{}}
}

// index returns the value → code index, building it on first use; safe for
// concurrent readers.
func (d *Dict) index() map[string]int32 {
	d.once.Do(func() {
		d.codes = make(map[string]int32, len(d.values))
		for c, v := range d.values {
			d.codes[v] = int32(c)
		}
	})
	return d.codes
}

// Encode returns the code for v, assigning a fresh one if v was never seen.
func (d *Dict) Encode(v string) int32 {
	codes := d.index()
	if c, ok := codes[v]; ok {
		return c
	}
	c := int32(len(d.values))
	codes[v] = c
	d.values = append(d.values, v)
	return c
}

// Lookup returns the code for v and whether v is present, without inserting.
func (d *Dict) Lookup(v string) (int32, bool) {
	c, ok := d.index()[v]
	return c, ok
}

// Value returns the string for code c. It panics if c is out of range; callers
// must only pass codes previously returned by Encode.
func (d *Dict) Value(c int32) string {
	return d.values[c]
}

// Size returns the number of distinct values in the dictionary, i.e. the size
// of the active domain of the attribute.
func (d *Dict) Size() int { return len(d.values) }

// Values returns the distinct values in code order. The returned slice is the
// dictionary's backing storage and must not be modified.
func (d *Dict) Values() []string { return d.values }
