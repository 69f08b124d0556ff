package core

import (
	"sort"
	"strings"
)

// CFD is an encoded conditional functional dependency (X → A, tp): LHS is the
// attribute set X, RHS the single attribute A, and Tp the pattern tuple whose
// entries are meaningful on X ∪ {A} (constants or Wildcard).
type CFD struct {
	LHS AttrSet
	RHS int
	Tp  Pattern
}

// IsTrivial reports whether the CFD is trivial, i.e. its RHS attribute also
// appears in its LHS.
func (c CFD) IsTrivial() bool { return c.LHS.Has(c.RHS) }

// IsConstant reports whether the CFD is a constant CFD: every pattern entry
// over LHS ∪ {RHS} is a constant.
func (c CFD) IsConstant() bool {
	return c.Tp[c.RHS] != Wildcard && c.Tp.IsConstant(c.LHS)
}

// IsVariable reports whether the CFD is a variable CFD: the RHS pattern entry
// is the unnamed variable.
func (c CFD) IsVariable() bool { return c.Tp[c.RHS] == Wildcard }

// Attrs returns LHS ∪ {RHS}.
func (c CFD) Attrs() AttrSet { return c.LHS.Add(c.RHS) }

// Key returns a canonical string key identifying the CFD (LHS, RHS and the
// pattern restricted to LHS ∪ {RHS}), suitable for deduplication across
// algorithms.
func (c CFD) Key() string {
	var b strings.Builder
	b.WriteString(c.LHS.String())
	b.WriteString("->")
	b.WriteString(itoa(c.RHS))
	b.WriteByte('|')
	b.WriteString(c.Tp.Key(c.Attrs()))
	return b.String()
}

// Format renders the CFD in the paper's notation using the relation's schema
// and dictionaries, e.g. "([CC,AC] -> CT, (01, 908 || MH))".
func (c CFD) Format(r *Relation) string {
	var b strings.Builder
	b.WriteString("([")
	first := true
	c.LHS.ForEach(func(a int) {
		if !first {
			b.WriteString(",")
		}
		first = false
		b.WriteString(r.Schema().Name(a))
	})
	b.WriteString("] -> ")
	b.WriteString(r.Schema().Name(c.RHS))
	b.WriteString(", (")
	first = true
	c.LHS.ForEach(func(a int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		if c.Tp[a] == Wildcard {
			b.WriteByte('_')
		} else {
			b.WriteString(r.Dict(a).Value(c.Tp[a]))
		}
	})
	b.WriteString(" || ")
	if c.Tp[c.RHS] == Wildcard {
		b.WriteByte('_')
	} else {
		b.WriteString(r.Dict(c.RHS).Value(c.Tp[c.RHS]))
	}
	b.WriteString("))")
	return b.String()
}

// Satisfies reports whether r ⊨ c under the exact pair semantics of the paper:
// for every pair of tuples t1, t2 (including t1 = t2), if t1[X] = t2[X] ≼ tp[X]
// then t1[A] = t2[A] ≼ tp[A].
func Satisfies(r *Relation, c CFD) bool {
	if c.IsTrivial() {
		// A trivial CFD holds iff either its two occurrences of the RHS pattern
		// agree, or no tuple matches its LHS pattern. With a single stored
		// pattern entry per attribute the two occurrences always agree.
		return true
	}
	rhsConst := c.Tp[c.RHS]
	groups := make(map[string]int32)
	var keyBuf []byte
	attrs := c.LHS.Attrs()
	for t := 0; t < r.Size(); t++ {
		if !c.Tp.MatchesTuple(r, t, c.LHS) {
			continue
		}
		av := r.Value(t, c.RHS)
		if rhsConst != Wildcard && av != rhsConst {
			return false
		}
		keyBuf = keyBuf[:0]
		for _, a := range attrs {
			keyBuf = appendCode(keyBuf, r.Value(t, a))
		}
		k := string(keyBuf)
		if prev, ok := groups[k]; ok {
			if prev != av {
				return false
			}
		} else {
			groups[k] = av
		}
	}
	return true
}

// Violations returns the indexes of tuples involved in at least one violation
// of c in r, in ascending order, under the pair semantics of Satisfies: the
// tuples matching the LHS pattern are grouped by their LHS values, and a group
// violates — every member of it — when its members disagree on the RHS
// attribute or, for a constant RHS, when any member misses the constant. So a
// constant-RHS violation flags the whole group, members carrying the constant
// included: on cust, ([AC] → CT, (131 ‖ EDI)) gives [4 5 7] — t5, t6 and t8 —
// though only t8 carries UN.
func Violations(r *Relation, c CFD) []int {
	if c.IsTrivial() {
		return nil
	}
	ix := NewGroupIndex(r, []CFD{c})
	for t := 0; t < r.Size(); t++ {
		ix.Insert(t, nil)
	}
	if bad := ix.Violating(nil)[0]; bad != nil {
		return bad
	}
	return []int{} // non-nil, as callers of a satisfied non-trivial rule have always got
}

// Support returns |sup(c, r)|: the number of tuples matching the pattern of c
// on LHS ∪ {RHS}.
func Support(r *Relation, c CFD) int {
	return r.CountMatching(c.Attrs(), c.Tp)
}

// IsLeftReduced reports whether c is left-reduced on r per §2.2.1:
//
//   - constant CFD (X → A, (tp ‖ a)): no proper subset Y ⊊ X satisfies
//     (Y → A, (tp[Y] ‖ a));
//   - variable CFD (X → A, (tp ‖ _)): (1) no proper subset Y ⊊ X satisfies
//     (Y → A, (tp[Y] ‖ _)), and (2) no strictly more general LHS pattern t'p
//     (some constant upgraded to "_") satisfies (X → A, (t'p ‖ _)).
//
// Because satisfaction is monotone when attributes are added to the LHS (with
// the same restricted pattern) and when LHS patterns are specialised, checking
// immediate subsets and single-constant upgrades is sufficient.
func IsLeftReduced(r *Relation, c CFD) bool {
	reduced := true
	c.LHS.ImmediateSubsets(func(_ int, sub AttrSet) bool {
		smaller := CFD{LHS: sub, RHS: c.RHS, Tp: c.Tp}
		if Satisfies(r, smaller) {
			reduced = false
			return false
		}
		return true
	})
	if !reduced {
		return false
	}
	if c.IsVariable() {
		constAttrs := c.Tp.ConstAttrs(c.LHS)
		ok := true
		constAttrs.ForEach(func(a int) {
			if !ok {
				return
			}
			up := c.Tp.Clone()
			up[a] = Wildcard
			if Satisfies(r, CFD{LHS: c.LHS, RHS: c.RHS, Tp: up}) {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// IsMinimal reports whether c is a minimal CFD on r: nontrivial, satisfied by
// r, and left-reduced.
func IsMinimal(r *Relation, c CFD) bool {
	return !c.IsTrivial() && Satisfies(r, c) && IsLeftReduced(r, c)
}

// The canonical rule orders. Two orders are part of the rule-file contract —
// rule files, the streamed order under Emit and every fingerprint built on
// them must not move by a byte — and both are plain string orders on a key
// rendered from the rule:
//
//   - encoded rules (SortCFDs here; every miner's output) order by
//     CFD.Key(), e.g. "{0,10}->2|0=-1;2=7;10=3;": attribute indexes and value
//     codes in decimal, so "10" sorts before "2" and "-1" before "0";
//   - public rules (cfd.SortCFDs; rules.Set.Text, discovery.Engine.Run) order
//     by cfd.CFD.Normalize().String(), the rendered rule text with the LHS
//     listed by attribute name — "([AC,CT] -> ZIP, (908, _ || _))" — so LHS
//     names decide first, then the RHS name, then the pattern constants.
//
// Neither is the numeric order of its fields, which is why the sorts below
// keep the string keys and only stop rendering them once per comparison:
// SortByKeys sorts any rule slice by keys rendered once per rule.

// byKeys sorts items and their keys together, by key.
type byKeys[T any] struct {
	items []T
	keys  []string
}

func (s byKeys[T]) Len() int           { return len(s.keys) }
func (s byKeys[T]) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s byKeys[T]) Swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// SortByKeys sorts items by keys, where keys[i] is the sort key of items[i];
// both slices end up in ascending key order. It runs the comparisons and
// swaps of sort.Slice with the keys rendered per comparison, so equal keys
// land where they always have.
func SortByKeys[T any](items []T, keys []string) {
	sort.Sort(byKeys[T]{items, keys})
}

// SortCFDs sorts a slice of CFDs by their canonical key, for deterministic
// output and easy comparison in tests.
func SortCFDs(cfds []CFD) {
	keys := make([]string, len(cfds))
	for i, c := range cfds {
		keys[i] = c.Key()
	}
	SortByKeys(cfds, keys)
}

// appendCode appends the little-endian bytes of v to buf; used to build
// composite map keys from encoded values.
func appendCode(buf []byte, v int32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
