package violation

import (
	"repro/cfd"
	"repro/rules"
)

// RuleStat is the live discovery statistics of one served rule, derived in
// O(1) from the counters its LHS set's core.GroupIndex already maintains for
// it — no rescan of the relation is ever needed.
//
// Support is the number of live tuples matching the rule's LHS pattern
// constants (the tuples the rule applies to), Groups the number of distinct
// LHS-value equivalence classes among them, and Violating the number of
// supporting tuples currently involved in a violation. Confidence is the
// fraction of supporting tuples that are violation-free,
// (Support-Violating)/Support; a rule with no supporting tuples is vacuously
// satisfied, so its Confidence is 1.
//
// These are the quantities the paper's miners threshold on at discovery time
// (support §2.2, confidence via the dirty-data variants); serving them live
// is what lets the maintenance layer detect drift without re-mining.
type RuleStat struct {
	Rule       cfd.CFD
	Support    int
	Groups     int
	Violating  int
	Confidence float64
}

// RuleStats returns one RuleStat per served rule, in set order, computed
// under a read lock in O(rules) total. The snapshot is consistent: all
// entries observe the same epoch.
func (e *Engine) RuleStats() []RuleStat {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ruleStats()
}

// RuleSetStats returns RuleSet and RuleStats read under one read lock, so
// the i-th stat is always that of the returned set's i-th rule, even when a
// swap to another set of the same size lands during the call.
func (e *Engine) RuleSetStats() (*rules.Set, []RuleStat) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return rules.New(e.set.CFDs(), e.set.Provenance()), e.ruleStats()
}

// ruleStats computes RuleStats; the caller holds e.mu.
func (e *Engine) ruleStats() []RuleStat {
	out := make([]RuleStat, len(e.rules))
	for _, x := range e.indexes {
		for r, i := range x.at {
			s := RuleStat{
				Rule:       e.rules[i],
				Support:    x.Tuples(r),
				Groups:     x.Groups(r),
				Violating:  x.BadTuples(r),
				Confidence: 1,
			}
			if s.Support > 0 {
				s.Confidence = float64(s.Support-s.Violating) / float64(s.Support)
			}
			out[i] = s
		}
	}
	return out
}

// IndexStat describes the index of one LHS set X. Tuples counts the tuples in
// its groups, those some rule over X applies to, and One, Run and Large are
// π_X's groups among them by size (core.GroupIndex.Shape). Root names the
// attribute R whose partition π_R the index refines: the root holds every
// live tuple, and the index reads its groups through the root's classes and
// stores none. An empty Root means the index stores its groups itself.
type IndexStat struct {
	LHS             []string
	Root            string
	Tuples          int
	One, Run, Large int
}

// IndexStats returns one IndexStat per LHS set of the served rules, in order
// of first appearance, under the read lock, in O(LHS sets).
func (e *Engine) IndexStats() []IndexStat {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]IndexStat, len(e.indexes))
	for i, x := range e.indexes {
		st := IndexStat{Tuples: x.Members()}
		for _, a := range x.LHS().Attrs() {
			st.LHS = append(st.LHS, e.schema.Name(a))
		}
		if root := x.Root(); root != nil {
			st.Root = e.schema.Name(root.Attr())
		}
		st.One, st.Run, st.Large = x.Shape()
		out[i] = st
	}
	return out
}
