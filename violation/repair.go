package violation

import (
	"slices"
	"sort"

	"repro/cfd"
)

// Repair is a suggested single-attribute correction for one tuple: under
// Rule, the tuple's Attribute holds Current where its left-hand-side group
// says Suggested.
type Repair struct {
	Tuple     int
	Attribute string
	Current   string
	Suggested string
	Rule      cfd.CFD
}

// offGroup runs the repair rule (core.GroupIndex.Repairs) over every LHS
// set's violating groups — one pass per index, fanned out like a snapshot
// rebuild — and collects what mk makes of each off-target member, per rule in
// set order. The whole walk — O(groups + tuples in violating groups) — runs
// under the read lock, so the result is one consistent point-in-time read; mk
// runs under it too and may read the relation's dictionaries.
func offGroup[T any](e *Engine, mk func(rule, id int, have, want int32) T) [][]T {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return perRule(e, e.indexes, len(e.rules), func(x *lhsIndex) [][]T {
		out := make([][]T, len(x.at))
		x.Repairs(e.rel.Dict, func(r, id int, have, want int32) {
			out[r] = append(out[r], mk(x.at[r], id, have, want))
		})
		return out
	})
}

// Repairs proposes value corrections for the tuples that violate the rules,
// read off the live indexes:
//
//   - under a rule with a constant right-hand side, every tuple of a violating
//     group that misses the constant is corrected to it;
//   - under a variable rule, every tuple of a violating group is corrected to
//     the most common RHS value among the tuples sharing its left-hand side
//     (the lexicographically smallest of them on a tie).
//
// The suggestions are heuristics in the spirit of the repair methods the paper
// cites ([2], [27]); they are not guaranteed to be a minimal repair. They are
// ordered by tuple id, then attribute name, then the rule's position in the
// set — a total order, so equal states yield equal slices.
func (e *Engine) Repairs() []Repair {
	perRule := offGroup(e, func(rule, id int, have, want int32) Repair {
		r := e.rules[rule]
		rhs, _ := e.schema.Index(r.RHS)
		values := e.rel.Dict(rhs)
		return Repair{Tuple: id, Attribute: r.RHS, Current: values.Value(have), Suggested: values.Value(want), Rule: r}
	})
	out := slices.Concat(perRule...)
	// A rule repairs a tuple at most once and perRule is in set order, so the
	// stable sort breaks (tuple, attribute) ties by rule position.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Tuple != out[j].Tuple {
			return out[i].Tuple < out[j].Tuple
		}
		return out[i].Attribute < out[j].Attribute
	})
	return out
}

// Suspects returns, ascending, the ids of the tuples most likely to be
// erroneous: exactly the tuples Repairs would correct — those missing a
// constant rule's RHS constant, plus those holding a minority RHS value
// within their left-hand-side group under a variable rule. This is a sharper
// signal than Dirty, which holds every tuple involved in any violating pair
// (under a variable rule a single wrong tuple drags its whole group in).
func (e *Engine) Suspects() []int {
	out := []int{}
	for _, ids := range offGroup(e, func(_, id int, _, _ int32) int { return id }) {
		out = append(out, ids...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
