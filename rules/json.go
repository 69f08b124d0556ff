package rules

import (
	"encoding/json"
	"fmt"

	"repro/cfd"
)

// setJSON is the wire form of a Set. Rules are carried as strings in the
// paper's notation (the source of truth on decode); the class counts and
// tableaux are derived views included for consumers that should not have to
// recompute them, and are ignored — recomputed lazily — when unmarshalling.
type setJSON struct {
	Provenance *Provenance   `json:"provenance,omitempty"`
	Rules      []string      `json:"rules"`
	Constant   int           `json:"constant"`
	Variable   int           `json:"variable"`
	Tableaux   []tableauJSON `json:"tableaux,omitempty"`
}

type tableauJSON struct {
	LHS      []string   `json:"lhs"`
	RHS      string     `json:"rhs"`
	Patterns [][]string `json:"patterns"`
}

// MarshalJSON renders the set with its rules (in set order), provenance,
// class counts and pattern tableaux.
func (s *Set) MarshalJSON() ([]byte, error) {
	out := setJSON{
		Rules:    make([]string, 0, s.Len()),
		Constant: s.Constant(),
		Variable: s.Variable(),
	}
	if p := s.Provenance(); !p.IsZero() {
		out.Provenance = &p
	}
	for _, c := range s.CFDs() {
		out.Rules = append(out.Rules, c.String())
	}
	for _, t := range s.Tableaux() {
		out.Tableaux = append(out.Tableaux, tableauJSON{LHS: t.LHS, RHS: t.RHS, Patterns: t.Patterns})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the wire form, re-parsing each rule string. The full
// GET /rules envelope of cmd/cfdserve ({"attributes": ..., "ruleset": {...}})
// is accepted too, so a saved /rules response feeds straight back into
// -rules flags; any other document without a "rules" array is rejected
// rather than silently decoded as an empty set. The envelope is one level
// deep, as served: a "ruleset" inside a "ruleset" is an error, not a
// recursion that rescans and copies the document once per level. Duplicate
// rules collapse as in New, the first one kept. Decode into
// a fresh (zero) Set: the lazy views of a previously used Set are not reset.
func (s *Set) UnmarshalJSON(data []byte) error {
	var raw setJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Rules == nil {
		var envelope struct {
			Ruleset *setJSON `json:"ruleset"`
		}
		if err := json.Unmarshal(data, &envelope); err != nil || envelope.Ruleset == nil {
			return fmt.Errorf(`rules: JSON document has no "rules" array`)
		}
		if envelope.Ruleset.Rules == nil {
			return fmt.Errorf(`rules: "ruleset" holds no "rules" array (envelopes do not nest)`)
		}
		raw = *envelope.Ruleset
	}
	cfds := make([]cfd.CFD, 0, len(raw.Rules))
	for i, line := range raw.Rules {
		c, err := cfd.Parse(line)
		if err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
		cfds = append(cfds, c)
	}
	s.setRules(cfds)
	s.prov = Provenance{}
	if raw.Provenance != nil {
		s.prov = *raw.Provenance
	}
	return nil
}
