package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

func tinySpec(t *testing.T, name string) spec {
	t.Helper()
	all, err := specs("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if s.name == name {
			return s
		}
	}
	t.Fatalf("no tiny spec %q", name)
	return spec{}
}

// digest generates a workload's files and script in a fresh directory and
// returns their hash.
func digest(t *testing.T, s spec, seed int64) string {
	t.Helper()
	in, err := generate(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.write(t.TempDir(), true, true); err != nil {
		t.Fatal(err)
	}
	h, err := hashInputs([]string{in.mineCSV, in.sampleCSV, in.dataCSV}, in.script(2, "rules"))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// One seed, one set of inputs; another seed, other inputs.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, name := range []string{"mine-wide", "serve-ingest", "serve-mixed"} {
		s := tinySpec(t, name)
		a, b, other := digest(t, s, 7), digest(t, s, 7), digest(t, s, 8)
		if a != b {
			t.Errorf("%s: two generations with seed 7 differ: %s vs %s", name, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs (%s)", name, a)
		}
	}
}

// Every round of a script leaves the server as it found it and hands out the
// ids the script predicted: inserts take fresh sequential ids, and every id
// inserted in a round is deleted in that round.
func TestScriptRoundsRestoreState(t *testing.T) {
	for _, name := range []string{"serve-ingest", "serve-mixed"} {
		s := tinySpec(t, name)
		in, err := generate(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		next := s.serveRows
		for r, steps := range in.script(3, "rules") {
			live := map[int]bool{}
			for _, st := range steps {
				if len(st.IDs) > 0 && st.IDs[0] != next {
					t.Fatalf("%s round %d: insert expects id %d, the server would assign %d", name, r, st.IDs[0], next)
				}
				next += len(st.IDs)
				for _, op := range st.Ops {
					switch op.Kind {
					case "delete":
						if !live[op.ID] {
							t.Fatalf("%s round %d: deletes id %d, which the round did not insert", name, r, op.ID)
						}
						delete(live, op.ID)
					case "update":
						if !live[op.ID] {
							t.Fatalf("%s round %d: updates id %d, which is not live", name, r, op.ID)
						}
					}
				}
				for _, id := range st.IDs {
					live[id] = true
				}
			}
			if len(live) != 0 {
				t.Errorf("%s round %d leaves %d inserted tuples behind", name, r, len(live))
			}
		}
	}
}

func TestRoundsFromSeconds(t *testing.T) {
	s := spec{roundCost: 2.5}
	for seconds, want := range map[float64]int{20: 8, 1: 3, 60: 24} {
		if got := s.rounds(seconds); got != want {
			t.Errorf("rounds(%v) = %d, want %d", seconds, got, want)
		}
	}
	if got := (spec{}).rounds(20); got != 2 {
		t.Errorf("a tiny spec runs %d rounds, want 2", got)
	}
}

// BENCHMARK.json and the code name the same workloads and metrics, and the
// file keeps within the limits its contract sets.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.Paths, []string{"bench"}) || !slices.Equal(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}

	full, _ := specs("full")
	tiny, _ := specs("tiny")
	if len(doc.Workloads) != len(full) || len(tiny) != len(full) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d full specs, %d tiny specs", len(doc.Workloads), len(full), len(tiny))
	}
	for i, w := range doc.Workloads {
		if w.Name != full[i].name || w.Name != tiny[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q / %q in specs", i, w.Name, full[i].name, tiny[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	var e2e []string
	for _, def := range doc.EndToEnd {
		e2e = append(e2e, def.Name)
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v", def.Name, def.Bound)
		}
	}
	slices.Sort(e2e)
	if got := slices.Sorted(maps.Keys(newResult("x").endToEnd())); !slices.Equal(got, e2e) {
		t.Errorf("end-to-end metrics: the code prints %v, BENCHMARK.json lists %v", got, e2e)
	}

	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(doc.PerLayer), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, def := range doc.PerLayer {
		want := perLayer[i]
		if want.Better == "" {
			want.Better = "lower"
		}
		if def != want {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, def, want)
		}
		if !name.MatchString(def.Name) || !unit.MatchString(def.Unit) || seen[def.Name] {
			t.Errorf("per-layer metric %+v breaks the naming rules or repeats", def)
		}
		seen[def.Name] = true
	}
}
