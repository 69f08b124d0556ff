package dataset_test

import (
	"context"
	"testing"

	"repro/dataset"
	"repro/discovery"
)

func TestSample(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 2000, Arity: 7, CF: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sample, err := dataset.Sample(rel, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Arity() != rel.Arity() {
		t.Fatalf("sample arity %d", sample.Arity())
	}
	if sample.Size() < rel.Size()/8 || sample.Size() > rel.Size()/2 {
		t.Errorf("sample size %d is far from 25%% of %d", sample.Size(), rel.Size())
	}
	// Determinism.
	again, err := dataset.Sample(rel, 0.25, 1)
	if err != nil || again.Size() != sample.Size() {
		t.Errorf("sampling is not deterministic: %d vs %d (%v)", again.Size(), sample.Size(), err)
	}
	// Invalid fractions.
	if _, err := dataset.Sample(rel, 0, 1); err == nil {
		t.Error("fraction 0 must be rejected")
	}
	if _, err := dataset.Sample(rel, 1.5, 1); err == nil {
		t.Error("fraction > 1 must be rejected")
	}
	// A tiny fraction still returns at least one tuple.
	tiny, err := dataset.Sample(rel.Head(3), 0.0001, 1)
	if err != nil || tiny.Size() < 1 {
		t.Errorf("tiny sample should keep at least one tuple: %d, %v", tiny.Size(), err)
	}
}

func TestStratifiedSample(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 2000, Arity: 7, CF: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sample, err := dataset.StratifiedSample(rel, "CC", 0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every stratum of CC must be represented.
	countValues := func(relation interface {
		Size() int
		Row(int) []string
	}, col int) map[string]int {
		m := map[string]int{}
		for i := 0; i < relation.Size(); i++ {
			m[relation.Row(i)[col]]++
		}
		return m
	}
	ccIdx := 0
	full := countValues(rel, ccIdx)
	got := countValues(sample, ccIdx)
	for v := range full {
		if got[v] == 0 {
			t.Errorf("stratum CC=%s lost from the sample", v)
		}
	}
	// Proportions roughly preserved (each stratum contributes ~20%).
	for v, n := range full {
		share := float64(got[v]) / float64(n)
		if share < 0.1 || share > 0.4 {
			t.Errorf("stratum CC=%s kept %.0f%% of its tuples, want ≈20%%", v, 100*share)
		}
	}
	if _, err := dataset.StratifiedSample(rel, "NOPE", 0.2, 1); err == nil {
		t.Error("unknown attribute must be rejected")
	}
	if _, err := dataset.StratifiedSample(rel, "CC", 0, 1); err == nil {
		t.Error("fraction 0 must be rejected")
	}
}

// TestSampleDiscoveryRecall follows §8 of the paper: rules discovered on a
// sample should mostly hold on the full relation, because the generator's
// embedded dependencies are exact.
func TestSampleDiscoveryRecall(t *testing.T) {
	rel, err := dataset.Tax(dataset.TaxConfig{Size: 3000, Arity: 7, CF: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sample, err := dataset.StratifiedSample(rel, "CC", 0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := discovery.NewEngine(discovery.AlgFastCFD, sample, discovery.WithSupport(20), discovery.WithMaxLHS(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("no rules discovered on the sample")
	}
	// The generator's exact dependency AC -> CT must be rediscovered on the
	// sample and, being exact, must hold on the full relation; beyond that, a
	// non-trivial share of the sampled rules should transfer (many pattern-
	// specific rules legitimately do not, which is the caveat §8 discusses).
	foundACCT := false
	holding := 0
	for _, c := range set.CFDs() {
		if c.IsFD() && len(c.LHS) == 1 && c.LHS[0] == "AC" && c.RHS == "CT" {
			foundACCT = true
		}
		ok, err := rel.Satisfies(c)
		if err == nil && ok {
			holding++
		}
	}
	if !foundACCT {
		t.Error("the embedded FD AC -> CT was not rediscovered on the sample")
	}
	if holding == 0 {
		t.Error("no sampled rule holds on the full relation")
	}
	t.Logf("%d of %d sampled rules hold on the full relation", holding, set.Len())
}
