// Package cleaning is the data-cleaning application layer motivating the
// paper: discovered CFDs are used as data quality rules to detect, localise
// and suggest repairs for inconsistencies in a relation. It covers the
// workflow of §1 of the paper (and of the repair literature it cites): mine a
// rules.Set from a trusted sample with repro/discovery (Engine.Run), then run
// Detect / SuggestRepairs with that set on the data to be cleaned.
package cleaning

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/cfd"
	"repro/internal/core"
	"repro/rules"
	"repro/violation"
)

// Violation records the tuples of a relation that violate one rule.
type Violation struct {
	Rule   cfd.CFD
	Tuples []int
}

// Report is the outcome of running a set of rules against a relation.
type Report struct {
	// Violations holds one entry per violated rule, in rule order.
	Violations []Violation
	// DirtyTuples is the sorted union of all violating tuple indexes.
	DirtyTuples []int
	// RulesChecked is the number of rules evaluated.
	RulesChecked int
}

// Clean reports whether no violations were found.
func (rep *Report) Clean() bool { return len(rep.Violations) == 0 }

// Detect evaluates every rule of the set against the relation and collects
// the violating tuples. Rules referring to constants outside the relation's
// active domain cannot be violated (no tuple matches them) and are skipped
// silently; rules naming unknown attributes are reported as errors.
//
// Detection is delegated to the indexed engine of repro/violation (bulk load,
// parallel across rules), so batch and incremental detection share one
// matcher; this function keeps only the attribute validation and the report
// conversion.
func Detect(rel *cfd.Relation, set *rules.Set) (*Report, error) {
	known := make(map[string]bool)
	for _, a := range rel.Attributes() {
		known[a] = true
	}
	for _, rule := range set.CFDs() {
		if err := rule.Validate(); err != nil {
			return nil, err
		}
		if !known[rule.RHS] {
			return nil, fmt.Errorf("cleaning: rule %s: unknown attribute %q", rule, rule.RHS)
		}
		for _, a := range rule.LHS {
			if !known[a] {
				return nil, fmt.Errorf("cleaning: rule %s: unknown attribute %q", rule, a)
			}
		}
	}
	eng, err := violation.New(rel.Attributes(), set, violation.Options{})
	if err != nil {
		return nil, err
	}
	if err := eng.BulkLoad(rel); err != nil {
		return nil, err
	}
	vrep := eng.Report()
	rep := &Report{RulesChecked: vrep.RulesChecked, DirtyTuples: vrep.DirtyTuples}
	for _, v := range vrep.Violations {
		rep.Violations = append(rep.Violations, Violation(v))
	}
	return rep, nil
}

// TupleReport lists the rules violated by one tuple.
type TupleReport struct {
	Tuple int
	Rules []cfd.CFD
}

// ByTuple regroups a report by tuple, which is the view a human reviewer or a
// repair algorithm works from.
func ByTuple(rep *Report) []TupleReport {
	m := make(map[int][]cfd.CFD)
	for _, v := range rep.Violations {
		for _, t := range v.Tuples {
			m[t] = append(m[t], v.Rule)
		}
	}
	out := make([]TupleReport, 0, len(m))
	for t, rules := range m {
		out = append(out, TupleReport{Tuple: t, Rules: rules})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tuple < out[j].Tuple })
	return out
}

// Suspects returns the tuples most likely to be erroneous under the rules:
// tuples that violate a constant-RHS rule on their own, plus tuples holding a
// minority right-hand-side value within their left-hand-side group under a
// variable rule. This is a sharper signal than Report.DirtyTuples, which
// contains every tuple involved in any violating pair (for a variable rule a
// single wrong tuple drags its whole group in).
func Suspects(rel *cfd.Relation, set *rules.Set) ([]int, error) {
	repairs, err := SuggestRepairs(rel, set)
	if err != nil {
		return nil, err
	}
	seen := make(map[int]bool)
	for _, rp := range repairs {
		seen[rp.Tuple] = true
	}
	out := make([]int, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Ints(out)
	return out, nil
}

// Repair is a suggested single-attribute correction for one tuple.
type Repair struct {
	Tuple     int
	Attribute string
	Current   string
	Suggested string
	Rule      cfd.CFD
}

// SuggestRepairs proposes value corrections for tuples that violate the rules:
//
//   - for a rule with a constant right-hand side, a violating tuple's RHS value
//     is corrected to the rule's constant;
//   - for a variable rule, a violating tuple's RHS value is corrected to the
//     most common RHS value among the tuples sharing its left-hand side.
//
// The suggestions are heuristics in the spirit of the repair methods the paper
// cites ([2], [27]); they are not guaranteed to be a minimal repair.
func SuggestRepairs(rel *cfd.Relation, set *rules.Set) ([]Repair, error) {
	rep, err := Detect(rel, set)
	if err != nil {
		return nil, err
	}
	var out []Repair
	enc := rel.Encoded()
	index := func(name string) int {
		a, _ := enc.Schema().Index(name) // Detect validated every attribute name
		return a
	}
	for _, v := range rep.Violations {
		rule := v.Rule
		rhs := index(rule.RHS)
		repair := func(t int, suggested string) {
			out = append(out, Repair{
				Tuple: t, Attribute: rule.RHS,
				Current: enc.ValueString(t, rhs), Suggested: suggested, Rule: rule,
			})
		}
		if !rule.IsVariable() {
			for _, t := range v.Tuples {
				if enc.ValueString(t, rhs) != rule.RHSPattern {
					repair(t, rule.RHSPattern)
				}
			}
			continue
		}
		// Variable rule: group the violating tuples by their LHS values and
		// suggest the majority RHS value of each group (falling back to the
		// group's lexicographically smallest value on ties). Groups are keyed
		// on the dictionary codes, fixed width, so no two distinct LHS value
		// combinations can share a key whatever bytes the values contain.
		lhs := make([]int, len(rule.LHS))
		for i, name := range rule.LHS {
			lhs[i] = index(name)
		}
		groups := make(map[string][]int)
		key := make([]byte, 0, 4*len(lhs))
		for _, t := range v.Tuples {
			key = key[:0]
			for _, a := range lhs {
				key = binary.LittleEndian.AppendUint32(key, uint32(enc.Value(t, a)))
			}
			groups[string(key)] = append(groups[string(key)], t)
		}
		values := enc.Dict(rhs)
		for _, tuples := range groups {
			counts := make(map[int32]int)
			for _, t := range tuples {
				counts[enc.Value(t, rhs)]++
			}
			best := core.Absent
			for code, n := range counts {
				if best == core.Absent || n > counts[best] || (n == counts[best] && values.Value(code) < values.Value(best)) {
					best = code
				}
			}
			for _, t := range tuples {
				if enc.Value(t, rhs) != best {
					repair(t, values.Value(best))
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tuple != out[j].Tuple {
			return out[i].Tuple < out[j].Tuple
		}
		return out[i].Attribute < out[j].Attribute
	})
	return out, nil
}

// ApplyRepairs returns a copy of the relation with the suggested repairs
// applied. When several repairs target the same tuple and attribute, the first
// one wins.
func ApplyRepairs(rel *cfd.Relation, repairs []Repair) *cfd.Relation {
	attrs := rel.Attributes()
	index := make(map[string]int, len(attrs))
	for i, a := range attrs {
		index[a] = i
	}
	patch := make(map[[2]int]string)
	for _, rp := range repairs {
		a, ok := index[rp.Attribute]
		if !ok {
			continue
		}
		key := [2]int{rp.Tuple, a}
		if _, dup := patch[key]; !dup {
			patch[key] = rp.Suggested
		}
	}
	out := cfd.MustRelation(attrs...)
	for t := 0; t < rel.Size(); t++ {
		row := append([]string(nil), rel.Row(t)...)
		for a := range attrs {
			if v, ok := patch[[2]int{t, a}]; ok {
				row[a] = v
			}
		}
		if err := out.Append(row...); err != nil {
			panic(err)
		}
	}
	return out
}
