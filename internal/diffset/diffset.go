// Package diffset computes the difference sets used by FastCFD and FastFD
// (§5.1 of the paper). For a constant pattern tp over attributes X, the
// sub-relation r_tp consists of the tuples matching tp; D(r_tp) contains, for
// every pair of tuples of r_tp, the set of attributes on which the pair
// disagrees; and D^m_A(r_tp) contains the minimal sets of D(r_tp) restricted to
// pairs that disagree on A, with A itself removed.
//
// Two backends implement the computation:
//
//   - Naive follows FastFD: it enumerates tuple pairs of r_tp directly. This
//     is the backend of the NaiveFast variant evaluated in §6.
//   - Closed derives the difference sets from the 2-frequent closed item sets
//     of the whole relation, mined once and filtered per pattern, which is the
//     optimisation that distinguishes FastCFD (§5.5).
package diffset

import (
	"cmp"
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/itemset"
)

// Computer produces minimal difference sets for constant patterns.
type Computer interface {
	// MinimalDiffSets returns D^m_A(r_tp) for the sub-relation of tuples
	// matching the constants of tp on attrs: the minimal attribute sets
	// (excluding A itself) on which some pair of r_tp tuples that disagrees on A
	// also disagrees.
	MinimalDiffSets(attrs core.AttrSet, tp core.Pattern, rhs int) []core.AttrSet
}

// Minimize returns the minimal sets of the input under set inclusion, with
// duplicates removed, sorted by size then bit pattern for determinism. The
// input is left as it was.
func Minimize(sets []core.AttrSet) []core.AttrSet {
	if len(sets) == 0 {
		return nil
	}
	all := slices.Clone(sets)
	slices.SortFunc(all, func(a, b core.AttrSet) int {
		return cmp.Or(cmp.Compare(a.Len(), b.Len()), cmp.Compare(a, b))
	})
	// A set can only contain one sorted before it, so the minimal sets are
	// filtered into the front of the sorted copy.
	out := all[:0]
	for i, s := range all {
		if i > 0 && s == all[i-1] {
			continue
		}
		if !slices.ContainsFunc(out, func(m core.AttrSet) bool { return m.SubsetOf(s) }) {
			out = append(out, s)
		}
	}
	return out
}

// restrictToRHS keeps the difference sets containing rhs, removes rhs from
// them, and minimizes the result — turning D(r_tp) into D^m_A(r_tp).
func restrictToRHS(diffs []core.AttrSet, rhs int) []core.AttrSet {
	var out []core.AttrSet
	for _, d := range diffs {
		if d.Has(rhs) {
			out = append(out, d.Remove(rhs))
		}
	}
	return Minimize(out)
}

// Covers reports whether Z covers the collection of difference sets: every set
// shares at least one attribute with Z. The empty collection is covered by any
// set; a collection containing the empty set is covered by none.
func Covers(Z core.AttrSet, diffs []core.AttrSet) bool {
	for _, d := range diffs {
		if !Z.Intersects(d) {
			return false
		}
	}
	return true
}

// IsMinimalCover reports whether Z covers diffs and no proper subset of Z does.
// Because removing a single attribute from a non-minimal cover still yields a
// cover, it suffices to check the immediate subsets of Z.
func IsMinimalCover(Z core.AttrSet, diffs []core.AttrSet) bool {
	if !Covers(Z, diffs) {
		return false
	}
	minimal := true
	Z.ImmediateSubsets(func(_ int, sub core.AttrSet) bool {
		if Covers(sub, diffs) {
			minimal = false
			return false
		}
		return true
	})
	return minimal
}

// Naive computes difference sets by direct pairwise comparison of the tuples
// matching the pattern, memoising per pattern (the FastFD approach used by
// NaiveFast).
type Naive struct {
	r     *core.Relation
	mu    sync.Mutex
	cache map[string][]core.AttrSet
}

// NewNaive returns a Naive difference-set computer over r.
func NewNaive(r *core.Relation) *Naive {
	return &Naive{r: r, cache: make(map[string][]core.AttrSet)}
}

// MinimalDiffSets implements Computer.
func (n *Naive) MinimalDiffSets(attrs core.AttrSet, tp core.Pattern, rhs int) []core.AttrSet {
	return restrictToRHS(n.diffSets(attrs, tp), rhs)
}

// diffSets returns the distinct difference sets of all tuple pairs of r_tp.
func (n *Naive) diffSets(attrs core.AttrSet, tp core.Pattern) []core.AttrSet {
	key := tp.Key(attrs)
	n.mu.Lock()
	if d, ok := n.cache[key]; ok {
		n.mu.Unlock()
		return d
	}
	n.mu.Unlock()

	r := n.r
	arity := r.Arity()
	tids := r.MatchingTuples(attrs, tp)
	seen := make(map[core.AttrSet]bool)
	for i := 0; i < len(tids); i++ {
		for j := i + 1; j < len(tids); j++ {
			var d core.AttrSet
			for a := 0; a < arity; a++ {
				if r.Value(int(tids[i]), a) != r.Value(int(tids[j]), a) {
					d = d.Add(a)
				}
			}
			if !d.IsEmpty() {
				seen[d] = true
			}
		}
	}
	out := make([]core.AttrSet, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })

	n.mu.Lock()
	n.cache[key] = out
	n.mu.Unlock()
	return out
}

// Closed computes difference sets from the 2-frequent closed item sets of the
// relation (§5.5): the agree set of any pair of tuples of r_tp is a closed
// item set with support ≥ 2 that contains the pattern's items, so the
// complements of the matching closed sets are a superset of the true
// difference sets that contains every true difference set — which leaves the
// minimal difference sets unchanged.
type Closed struct {
	r *core.Relation

	// prepMu serialises Prepare; ready flips once the fields below are built
	// and is the lock-free fast path of every query.
	prepMu sync.Mutex
	ready  atomic.Bool

	closed      []itemset.ClosedPattern
	complements []core.AttrSet
	// byItem indexes the closed sets by the items they contain — byItem[a][v]
	// lists, ascending, the closed sets holding value code v on attribute a —
	// so that the per-pattern filtering only scans the closed sets containing
	// the pattern's rarest item instead of the whole collection. The lists
	// are windows of one buffer.
	byItem [][][]int32

	mu    sync.Mutex
	cache map[string][]core.AttrSet
}

// NewClosed returns a Closed difference-set computer over r. The 2-frequent
// closed item sets are mined by Prepare, or sequentially by the first query
// if Prepare was never called, and reused for every pattern.
func NewClosed(r *core.Relation) *Closed {
	return &Closed{r: r, cache: make(map[string][]core.AttrSet)}
}

// Prepare mines the 2-frequent closed item sets on up to workers goroutines
// (0 = one per CPU, 1 = sequential) and indexes them. Callers that search in
// parallel call it up front, so that the mining is itself parallel and
// cancellable instead of one query's side effect that every other worker
// waits out. A cancelled Prepare returns ctx.Err() and leaves the computer
// unprepared; a later call starts over. Once it has succeeded, further calls
// return nil at once.
func (c *Closed) Prepare(ctx context.Context, workers int) error {
	if c.ready.Load() {
		return nil
	}
	c.prepMu.Lock()
	defer c.prepMu.Unlock()
	if c.ready.Load() {
		return nil
	}
	closed, err := itemset.MineClosed(ctx, c.r, 2, workers)
	if err != nil {
		return err
	}
	all := c.r.Schema().All()
	c.closed = closed
	c.complements = make([]core.AttrSet, len(closed))
	// Count the closed sets per item, carve one window per item out of a
	// single buffer, then fill the windows in closed-set order.
	counts := make([][]int32, c.r.Arity())
	for a := range counts {
		counts[a] = make([]int32, c.r.DomainSize(a))
	}
	total := 0
	for i, cp := range closed {
		c.complements[i] = all.Diff(cp.Attrs)
		cp.Attrs.ForEach(func(a int) { counts[a][cp.Tp[a]]++ })
		total += cp.Attrs.Len()
	}
	flat := make([]int32, total)
	c.byItem = make([][][]int32, len(counts))
	off := 0
	for a, perValue := range counts {
		c.byItem[a] = make([][]int32, len(perValue))
		for v, n := range perValue {
			c.byItem[a][v] = flat[off : off : off+int(n)]
			off += int(n)
		}
	}
	for i, cp := range closed {
		cp.Attrs.ForEach(func(a int) {
			list := &c.byItem[a][cp.Tp[a]]
			*list = append(*list, int32(i))
		})
	}
	c.ready.Store(true)
	return nil
}

// MinimalDiffSets implements Computer.
func (c *Closed) MinimalDiffSets(attrs core.AttrSet, tp core.Pattern, rhs int) []core.AttrSet {
	return restrictToRHS(c.diffSets(attrs, tp), rhs)
}

// diffSets returns the candidate difference sets for the pattern: complements
// of the 2-frequent closed item sets containing the pattern's items.
func (c *Closed) diffSets(attrs core.AttrSet, tp core.Pattern) []core.AttrSet {
	if err := c.Prepare(context.Background(), 1); err != nil {
		// Unreachable: the background context is never cancelled and
		// Prepare has no other failure mode.
		panic(err)
	}
	key := tp.Key(attrs)
	c.mu.Lock()
	if d, ok := c.cache[key]; ok {
		c.mu.Unlock()
		return d
	}
	c.mu.Unlock()

	// Restrict the scan to the closed sets containing the pattern's rarest
	// item; for the empty pattern every closed set qualifies.
	candidates := int32(-1) // -1 means "all"
	var narrowest []int32
	attrs.ForEach(func(a int) {
		list := c.byItem[a][tp[a]]
		if candidates == -1 || len(list) < int(candidates) {
			candidates = int32(len(list))
			narrowest = list
		}
	})
	var out []core.AttrSet
	scan := func(i int) {
		cp := c.closed[i]
		if !cp.ContainsItems(attrs, tp) {
			return
		}
		if d := c.complements[i]; !d.IsEmpty() {
			out = append(out, d)
		}
	}
	if candidates == -1 {
		for i := range c.closed {
			scan(i)
		}
	} else {
		for _, i := range narrowest {
			scan(int(i))
		}
	}
	// The distinct sets, copied out at their exact size: the scan's buffer
	// grew with the closed sets visited and the result is cached for the run.
	slices.Sort(out)
	out = slices.Clone(slices.Compact(out))

	c.mu.Lock()
	c.cache[key] = out
	c.mu.Unlock()
	return out
}
