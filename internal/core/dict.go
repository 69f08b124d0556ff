package core

import (
	"hash/maphash"
	"slices"
	"sync"
)

// Dict is a per-attribute dictionary mapping attribute values (strings) to dense
// int32 codes and back. Codes are assigned in first-seen order starting at 0.
//
// The value → code index is the dictionary's own open-addressed table. A slot
// holds 32 bits of the value's hash above code+1 (zero is an empty slot); a
// value's home slot is those stored hash bits masked to the table size, and
// collisions probe linearly. The table is kept at most half full. Because the
// home slot comes from the bits the slot itself stores, growing re-places
// every slot from its own contents and never hashes a string again. Codes
// never depend on the hash: the seed is per process, the output is not.
type Dict struct {
	values []string
	// slots is built on the first Encode or Lookup, not before: a dictionary
	// filled by Relation.AppendRecoded and only ever decoded (a snapshot
	// capture, a relation handed to code that works on codes alone) never
	// pays for hashing its values. Its length is a power of two.
	once  sync.Once
	slots []uint64
}

const minDictSlots = 16

var dictSeed = maphash.MakeSeed()

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	// values is never nil: it is serialised as part of Relation.Raw.
	return &Dict{values: []string{}}
}

// index builds the table on first use; safe for concurrent readers.
func (d *Dict) index() {
	d.once.Do(func() {
		n := minDictSlots
		for n < 2*len(d.values) {
			n *= 2
		}
		d.slots = make([]uint64, n)
		for c, v := range d.values {
			d.place(maphash.String(dictSeed, v)>>32<<32 | uint64(c+1))
		}
	})
}

// place puts a slot word into the first empty slot of its probe sequence.
func (d *Dict) place(slot uint64) {
	mask := uint64(len(d.slots) - 1)
	i := slot >> 32 & mask
	for d.slots[i] != 0 {
		i = (i + 1) & mask
	}
	d.slots[i] = slot
}

// find returns the code of the value v, whose hash is h, if it is present.
func find[T string | []byte](d *Dict, h uint64, v T) (int32, bool) {
	d.index()
	mask := uint64(len(d.slots) - 1)
	h >>= 32
	for i := h & mask; ; i = (i + 1) & mask {
		slot := d.slots[i]
		if slot == 0 {
			return 0, false
		}
		if slot>>32 == h {
			if c := int32(uint32(slot)) - 1; d.values[c] == string(v) {
				return c, true
			}
		}
	}
}

// add appends v, whose hash is h and which find did not find, and returns
// its code.
func (d *Dict) add(h uint64, v string) int32 {
	c := int32(len(d.values))
	if 2*(len(d.values)+1) > len(d.slots) {
		old := d.slots
		d.slots = make([]uint64, 2*len(old))
		for _, slot := range old {
			if slot != 0 {
				d.place(slot)
			}
		}
		// values doubles with the table rather than by append's quarter.
		d.values = slices.Grow(d.values, len(d.slots)/2-len(d.values))
	}
	d.values = append(d.values, v)
	d.place(h>>32<<32 | uint64(c+1))
	return c
}

// Encode returns the code for v, assigning a fresh one if v was never seen.
func (d *Dict) Encode(v string) int32 {
	h := maphash.String(dictSeed, v)
	if c, ok := find(d, h, v); ok {
		return c
	}
	return d.add(h, v)
}

// EncodeBytes is Encode for a value held as bytes: a value already present
// costs no allocation, a new one the string the dictionary keeps. b is not
// retained.
func (d *Dict) EncodeBytes(b []byte) int32 {
	h := maphash.Bytes(dictSeed, b)
	if c, ok := find(d, h, b); ok {
		return c
	}
	return d.add(h, string(b))
}

// Lookup returns the code for v and whether v is present, without inserting.
func (d *Dict) Lookup(v string) (int32, bool) {
	return find(d, maphash.String(dictSeed, v), v)
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
