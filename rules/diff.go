package rules

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"repro/cfd"
)

// ruleKey is the canonical fingerprint of one rule: its normalised rendering
// (LHS attributes sorted by name), so two structurally equal CFDs — however
// their LHS entries are ordered — key identically.
func ruleKey(c cfd.CFD) string { return c.Normalize().String() }

// Fingerprint returns the canonical content fingerprint of the set: a short
// hex digest over the sorted canonical rule keys, independent of rule order,
// LHS attribute order and provenance. Two sets with
// the same fingerprint serve the same dependencies, which is what lets a
// live swap (violation.Engine.SwapRules) and cfdserve's remine loop skip
// no-op reloads, and what GET /rules serves as its ETag. The digest is
// computed lazily and cached; a nil or empty set fingerprints to a fixed
// value.
func (s *Set) Fingerprint() string {
	if s == nil {
		return emptyFingerprint()
	}
	s.fpOnce.Do(func() {
		// Sorted, so the fingerprint ignores set order.
		keys := slices.Sorted(slices.Values(s.keys))
		h := sha256.New()
		for _, k := range keys {
			h.Write([]byte(k))
			h.Write([]byte{'\n'})
		}
		s.fp = hex.EncodeToString(h.Sum(nil))[:16]
	})
	return s.fp
}

func emptyFingerprint() string {
	h := sha256.New()
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Delta is the difference between two rule sets, as computed by Diff: the
// rules only in the new set (Added), only in the old set (Removed), and in
// both (Retained), each in the order of the set they came from — Added and
// Retained in new-set order, Removed in old-set order. Old and New carry the
// two sets' fingerprints for version logging and etags.
type Delta struct {
	Added    []cfd.CFD
	Removed  []cfd.CFD
	Retained []cfd.CFD
	Old, New string
}

// Unchanged reports whether the two sets hold the same rules (the delta has
// no additions and no removals).
func (d Delta) Unchanged() bool { return len(d.Added) == 0 && len(d.Removed) == 0 }

// String renders the delta compactly for logs: the counts plus the version
// transition, e.g. "+2 -1 =4 rules (3aa1… -> 9f04…)".
func (d Delta) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "+%d -%d =%d rules", len(d.Added), len(d.Removed), len(d.Retained))
	if d.Old != "" || d.New != "" {
		if d.Unchanged() {
			fmt.Fprintf(&b, " (%s unchanged)", short(d.New))
		} else {
			fmt.Fprintf(&b, " (%s -> %s)", short(d.Old), short(d.New))
		}
	}
	return b.String()
}

func short(fp string) string {
	if len(fp) > 4 {
		return fp[:4] + "…"
	}
	return fp
}

// ruleKeys returns the canonical key of each rule, in set order. A nil Set
// has none.
func (s *Set) ruleKeys() []string {
	if s == nil {
		return nil
	}
	return s.keys
}

// Diff compares two rule sets by canonical rule key and returns the added /
// removed / retained partition: the set differences and the intersection.
// Either set may be nil (treated as empty).
func Diff(old, new *Set) Delta {
	d := Delta{Old: old.Fingerprint(), New: new.Fingerprint()}
	inOld := make(map[string]bool, old.Len())
	for _, k := range old.ruleKeys() {
		inOld[k] = true
	}
	inNew := make(map[string]bool, new.Len())
	for i, k := range new.ruleKeys() {
		inNew[k] = true
		if inOld[k] {
			d.Retained = append(d.Retained, new.cfds[i])
		} else {
			d.Added = append(d.Added, new.cfds[i])
		}
	}
	for i, k := range old.ruleKeys() {
		if !inNew[k] {
			d.Removed = append(d.Removed, old.cfds[i])
		}
	}
	return d
}
