package partition

import "repro/internal/core"

// Groups is the output of a counting split: the tids of every kept group laid
// out group after group in one flat buffer, in the order the groups' keys
// first appeared in the input, ascending within a group. Split appends, so one
// Groups can collect the splits of several attributes; Reset empties it and
// keeps the buffers.
type Groups struct {
	Tids  []int32 // the groups' tids, group after group
	Ends  []int32 // Ends[i] is the end of group i in Tids; it starts where group i-1 ends
	Codes []int32 // Codes[i] is the key the tids of group i share
}

// Len returns the number of groups.
func (g *Groups) Len() int { return len(g.Ends) }

// Group returns the tids of group i, a window of the flat buffer.
func (g *Groups) Group(i int) []int32 { return window(g.Tids, g.Ends, i) }

// Reset empties the groups, keeping the buffers for the next split.
func (g *Groups) Reset() {
	g.Tids, g.Ends, g.Codes = g.Tids[:0], g.Ends[:0], g.Codes[:0]
}

// window returns tids[ends[i-1]:ends[i]], capped so that an append to it
// cannot run into the next group.
func window(tids, ends []int32, i int) []int32 {
	start := int32(0)
	if i > 0 {
		start = ends[i-1]
	}
	return tids[start:ends[i]:ends[i]]
}

// Splitter is the counting split every row-side loop of the miners is built
// on: it groups a tid list by a per-tuple key — an attribute's dictionary
// code — with one counter per key instead of a map from key to bucket. Keys
// are dense from zero, so the counters are an array; a list of the keys a
// call touched resets them in time proportional to the input, not to the key
// space. A Splitter allocates nothing per call once its output buffers have
// grown. It is not safe for concurrent use: every worker owns one.
type Splitter struct {
	// slot[k] counts the tids of key k during the first pass and holds one
	// plus k's write offset during the second; zero between calls.
	slot    []int32
	touched []int32
}

// NewSplitter returns a splitter for keys in [0, keys).
func NewSplitter(keys int) *Splitter {
	return &Splitter{slot: make([]int32, keys)}
}

// MaxDomain returns the largest dictionary size among r's attributes: the key
// space of a splitter that splits by any of them. Dictionaries can hold
// values no tuple carries, so this is not a count of live values.
func MaxDomain(r *core.Relation) int {
	d := 0
	for a := 0; a < r.Arity(); a++ {
		d = max(d, r.DomainSize(a))
	}
	return d
}

// Split groups tids by key[t] and appends every group of at least minSize
// tids to out. Tuples whose key is negative (holes of a relation) join no
// group.
func (s *Splitter) Split(key, tids []int32, minSize int, out *Groups) {
	if len(tids) < minSize {
		return
	}
	slot, touched := s.slot, s.touched[:0]
	for _, t := range tids {
		k := key[t]
		if k < 0 {
			continue
		}
		if slot[k] == 0 {
			touched = append(touched, k)
		}
		slot[k]++
	}
	s.touched = touched
	off := int32(len(out.Tids))
	base := off
	for _, k := range touched {
		c := slot[k]
		if int(c) < minSize {
			slot[k] = 0
			continue
		}
		slot[k] = off + 1
		off += c
		out.Ends = append(out.Ends, off)
		out.Codes = append(out.Codes, k)
	}
	if off == base {
		return
	}
	if int(off) > cap(out.Tids) {
		grown := make([]int32, len(out.Tids), max(int(off), 2*cap(out.Tids)))
		copy(grown, out.Tids)
		out.Tids = grown
	}
	flat := out.Tids[:off]
	for _, t := range tids {
		k := key[t]
		if k < 0 {
			continue
		}
		if p := slot[k]; p != 0 {
			flat[p-1] = t
			slot[k] = p + 1
		}
	}
	out.Tids = flat
	for _, k := range touched {
		slot[k] = 0
	}
}

// AllTids returns the tid list 0..n-1.
func AllTids(n int) []int32 {
	all := make([]int32, n)
	for t := range all {
		all[t] = int32(t)
	}
	return all
}

// ItemTids returns the tid list of every item of r: out[a][c] is the
// ascending list of the tuples of all whose attribute a holds code c, nil for
// a dictionary value none of them holds. The lists of one attribute are
// windows of one buffer.
func ItemTids(r *core.Relation, all []int32) [][][]int32 {
	out := make([][][]int32, r.Arity())
	s := NewSplitter(MaxDomain(r))
	for a := range out {
		var g Groups
		s.Split(r.Column(a), all, 1, &g)
		out[a] = make([][]int32, r.DomainSize(a))
		for i, c := range g.Codes {
			out[a][c] = g.Group(i)
		}
	}
	return out
}
