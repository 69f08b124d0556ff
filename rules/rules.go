package rules

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/cfd"
	"repro/internal/core"
)

// Provenance records where a rule set came from: the discovery algorithm, its
// support threshold, the shape of the mined relation and the wall-clock time
// of the run. A zero Provenance marks a hand-built or externally supplied set.
type Provenance struct {
	// Algorithm names the discovery algorithm ("ctane", "fastcfd", ...), or
	// is empty for sets not produced by discovery.
	Algorithm string `json:"algorithm,omitempty"`
	// Support is the threshold k the set was mined at.
	Support int `json:"support,omitempty"`
	// Tuples and Attributes record the shape of the source relation.
	Tuples     int `json:"tuples,omitempty"`
	Attributes int `json:"attributes,omitempty"`
	// Elapsed is the wall-clock time of the discovery run (excluding data
	// loading). It marshals as integer nanoseconds.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
}

// IsZero reports whether the provenance carries no information.
func (p Provenance) IsZero() bool { return p == Provenance{} }

// Set is an ordered set of single-pattern CFDs with provenance and lazily
// computed derived views. Build one with New (or Of for ad-hoc sets), receive
// one from discovery.Engine.Run, or read one back with Parse/Load. A Set holds
// each dependency at most once: no two of its rules share a canonical key. The
// contained rules are immutable after construction; the lazy views make
// concurrent reads safe.
type Set struct {
	cfds []cfd.CFD
	keys []string // keys[i] is ruleKey(cfds[i]), pairwise distinct
	prov Provenance

	countOnce sync.Once
	constant  int
	variable  int

	tableauOnce sync.Once
	tableaux    []cfd.TableauCFD

	fpOnce sync.Once
	fp     string // canonical content fingerprint, see Fingerprint
}

// New builds a Set from the given rules and provenance. The slice is copied,
// and a rule whose canonical key (its normalised rendering, so LHS order does
// not matter) an earlier rule already has is dropped: the first one is kept.
func New(cfds []cfd.CFD, prov Provenance) *Set {
	s := &Set{prov: prov}
	s.setRules(cfds)
	return s
}

// setRules fills the rules and their keys from cfds, duplicates collapsed.
func (s *Set) setRules(cfds []cfd.CFD) {
	s.cfds, s.keys = nil, nil
	seen := make(map[string]bool, len(cfds))
	for _, c := range cfds {
		k := ruleKey(c)
		if !seen[k] {
			seen[k] = true
			s.cfds = append(s.cfds, c)
			s.keys = append(s.keys, k)
		}
	}
}

// Of builds a Set without provenance, for hand-written rules and tests.
func Of(cfds ...cfd.CFD) *Set { return New(cfds, Provenance{}) }

// Len returns the number of rules. A nil Set is empty.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.cfds)
}

// CFDs returns the rules in set order. The slice is shared; do not modify it.
// A nil Set returns nil.
func (s *Set) CFDs() []cfd.CFD {
	if s == nil {
		return nil
	}
	return s.cfds
}

// Provenance returns the set's provenance.
func (s *Set) Provenance() Provenance {
	if s == nil {
		return Provenance{}
	}
	return s.prov
}

func (s *Set) count() {
	s.countOnce.Do(func() {
		s.constant, s.variable = cfd.CountClasses(s.cfds)
	})
}

// Constant returns the number of constant CFDs in the set (computed lazily).
func (s *Set) Constant() int {
	if s == nil {
		return 0
	}
	s.count()
	return s.constant
}

// Variable returns the number of variable CFDs in the set (computed lazily).
func (s *Set) Variable() int {
	if s == nil {
		return 0
	}
	s.count()
	return s.variable
}

// Tableaux groups the rules into pattern tableaux, one per embedded FD (§2.3
// of the paper). The result is computed lazily and cached; it is shared, do
// not modify it.
func (s *Set) Tableaux() []cfd.TableauCFD {
	if s == nil {
		return nil
	}
	s.tableauOnce.Do(func() {
		s.tableaux = cfd.BuildTableaux(s.cfds)
	})
	return s.tableaux
}

// Header renders the '#' summary comment line of the rule-file format.
func (s *Set) Header() string {
	p := s.Provenance()
	alg := p.Algorithm
	if alg == "" {
		alg = "rules"
	}
	return fmt.Sprintf("# %s on %d tuples x %d attributes, k=%d: %d CFDs (%d constant, %d variable) in %s",
		alg, p.Tuples, p.Attributes, p.Support, s.Len(), s.Constant(), s.Variable(), p.Elapsed.Round(time.Millisecond))
}

// Text renders the set as a rule file: the Header comment followed by one CFD
// per line in the paper's notation, sorted deterministically. The output
// round-trips through Parse (and cfd.ParseAll) and is the format consumed by
// cfdclean -rules and cfdserve -rules.
func (s *Set) Text() string {
	var b strings.Builder
	b.WriteString(s.Header())
	b.WriteByte('\n')
	// A set from discovery.Engine.Run is in canonical order already; only
	// one that is not gets copied and sorted.
	cfds := s.CFDs()
	if keys := s.ruleKeys(); !slices.IsSorted(keys) {
		cfds = slices.Clone(cfds)
		core.SortByKeys(cfds, slices.Clone(keys))
	}
	b.WriteString(cfd.FormatAll(cfds))
	return b.String()
}

// Write writes the rule-file rendering to w.
func (s *Set) Write(w io.Writer) error {
	_, err := io.WriteString(w, s.Text())
	return err
}

// Save writes the rule-file rendering to path.
func (s *Set) Save(path string) error {
	return os.WriteFile(path, []byte(s.Text()), 0o644)
}

// Parse reads a Set from either supported format, sniffed from the content: a
// JSON document (as marshalled by the Set itself and served by cfdserve) or a
// rule file (as written by Save / cfddiscover -o), whose '#' summary line —
// when present and well-formed — is parsed back into the provenance.
func Parse(text string) (*Set, error) {
	trimmed := strings.TrimSpace(text)
	if strings.HasPrefix(trimmed, "{") {
		s := new(Set)
		if err := json.Unmarshal([]byte(trimmed), s); err != nil {
			return nil, fmt.Errorf("rules: parsing JSON rule set: %w", err)
		}
		return s, nil
	}
	cfds, err := cfd.ParseAll(text)
	if err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	return New(cfds, provenanceFromHeader(text)), nil
}

// Load reads a Set from a file in either supported format.
func Load(path string) (*Set, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rules: %w", err)
	}
	return Parse(string(text))
}

// provenanceFromHeader recovers the provenance from the leading '#' summary
// comment of a rule file, if it matches the format Header writes. Any other
// leading comment (or none) yields a zero provenance.
func provenanceFromHeader(text string) Provenance {
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			break
		}
		var p Provenance
		var total, constant, variable int
		var elapsed string
		if _, err := fmt.Sscanf(line, "# %s on %d tuples x %d attributes, k=%d: %d CFDs (%d constant, %d variable) in %s",
			&p.Algorithm, &p.Tuples, &p.Attributes, &p.Support, &total, &constant, &variable, &elapsed); err == nil {
			if p.Algorithm == "rules" {
				// Header's placeholder for a provenance-less set: a text
				// round trip must not fabricate provenance from it.
				return Provenance{}
			}
			if d, err := time.ParseDuration(elapsed); err == nil {
				p.Elapsed = d
			}
			return p
		}
		break
	}
	return Provenance{}
}
