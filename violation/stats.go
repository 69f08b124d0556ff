package violation

import "repro/cfd"

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
