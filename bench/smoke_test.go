package main

import (
	"maps"
	"os/exec"
	"slices"
	"testing"
)

// TestSmokeTiny runs all four workloads end to end and traced at -scale
// tiny: real cfddiscover and cfdserve processes, every correctness check, the
// expected values of the default seed, and the shape of the result line.
func TestSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the programs under test")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the go tool is needed to build cfddiscover and cfdserve")
	}
	e, err := newEnv(t.TempDir(), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	all, err := specs("tiny")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, def := range e.bench.EndToEnd {
		e2e = append(e2e, def.Name)
	}
	for _, def := range e.bench.PerLayer {
		layers = append(layers, def.Name)
	}
	slices.Sort(e2e)
	slices.Sort(layers)
	for _, s := range all {
		for _, traced := range []bool{false, true} {
			res, metrics, err := e.run(s, defaultSeed, 1, traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Errorf("%s (traced=%v): %v", s.name, traced, res.problems)
			}
			want := e2e
			if traced {
				want = layers
			}
			if got := slices.Sorted(maps.Keys(metrics)); !slices.Equal(got, want) {
				t.Errorf("%s (traced=%v) prints metrics %v, BENCHMARK.json lists %v", s.name, traced, got, want)
			}
			if res.attempted == 0 {
				t.Errorf("%s (traced=%v) attempted no operation", s.name, traced)
			}
			if !traced {
				for name, m := range metrics {
					if m.Value <= 0 {
						t.Errorf("%s: %s = %v, want a positive measurement", s.name, name, m.Value)
					}
				}
			}
		}
	}

	// A seed other than the default runs the structural checks only.
	if res, _, err := e.run(all[2], 5, 1, false); err != nil || !res.correct() {
		t.Errorf("serve-ingest with seed 5: %v %v", err, res)
	}
}
