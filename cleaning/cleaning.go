// Package cleaning is the data-cleaning application layer motivating the
// paper: discovered CFDs are used as data quality rules to detect, localise
// and suggest repairs for inconsistencies in a relation. It covers the
// workflow of §1 of the paper (and of the repair literature it cites): mine a
// rules.Set from a trusted sample with repro/discovery (Engine.Run), then run
// Detect / SuggestRepairs with that set on the data to be cleaned. Detection
// and the repair rule both live in repro/violation, next to the indexes they
// read; the functions here are its batch entry points.
package cleaning

import (
	"sort"

	"repro/cfd"
	"repro/rules"
	"repro/violation"
)

// The report and repair types are the engine's: this package adds no
// detection or repair logic of its own, only the batch entry points.
type (
	// Violation records the tuples of a relation that violate one rule.
	Violation = violation.Violation
	// Report is the outcome of running a set of rules against a relation.
	Report = violation.Report
	// Repair is a suggested single-attribute correction for one tuple.
	Repair = violation.Repair
)

// Load bulk-loads the relation into a fresh violation engine serving the
// set, so tuple ids are the relation's tuple indexes. Rules referring to
// constants outside the relation's active domain cannot be violated (no
// tuple matches them); malformed rules and rules naming unknown attributes
// are errors. Detect, Suspects and SuggestRepairs are each one Load and one
// read; a caller that wants several of them loads once and reads the engine
// itself (Report, Suspects, Repairs).
func Load(rel *cfd.Relation, set *rules.Set) (*violation.Engine, error) {
	eng, err := violation.New(rel.Attributes(), set, violation.Options{})
	if err != nil {
		return nil, err
	}
	if err := eng.BulkLoad(rel); err != nil {
		return nil, err
	}
	return eng, nil
}

// Detect evaluates every rule of the set against the relation and collects
// the violating tuples (violation.Engine.Report).
func Detect(rel *cfd.Relation, set *rules.Set) (*Report, error) {
	eng, err := Load(rel, set)
	if err != nil {
		return nil, err
	}
	return eng.Report(), nil
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

// Suspects returns the tuples most likely to be erroneous under the rules
// (violation.Engine.Suspects): a sharper signal than Report.DirtyTuples.
func Suspects(rel *cfd.Relation, set *rules.Set) ([]int, error) {
	eng, err := Load(rel, set)
	if err != nil {
		return nil, err
	}
	return eng.Suspects(), nil
}

// SuggestRepairs proposes value corrections for tuples that violate the rules
// (violation.Engine.Repairs): the rule's constant, or the majority value of
// the tuple's left-hand-side group.
func SuggestRepairs(rel *cfd.Relation, set *rules.Set) ([]Repair, error) {
	eng, err := Load(rel, set)
	if err != nil {
		return nil, err
	}
	return eng.Repairs(), nil
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
