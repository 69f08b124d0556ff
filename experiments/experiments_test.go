package experiments_test

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/experiments"
)

var update = flag.Bool("update", false, "rewrite the count-figure goldens under testdata")

func TestIDsAndTitles(t *testing.T) {
	ids := experiments.IDs()
	if len(ids) < 14 {
		t.Fatalf("expected at least 14 figures, got %d", len(ids))
	}
	for _, id := range ids {
		if experiments.Title(id) == "" {
			t.Errorf("figure %s has no title", id)
		}
	}
	for _, want := range []string{"fig05", "fig10", "fig16", "ablation", "datasets"} {
		found := false
		for _, id := range ids {
			if id == want {
				found = true
			}
		}
		if !found {
			t.Errorf("figure %s missing from IDs()", want)
		}
	}
	if experiments.Title("nope") != "" {
		t.Error("unknown id should have an empty title")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if _, err := experiments.Run("fig99", experiments.Config{Quick: true}); err == nil {
		t.Error("unknown figure must error")
	}
}

// TestDatasetsFigure checks the §6.1 shape table at quick scale.
func TestDatasetsFigure(t *testing.T) {
	fig, err := experiments.Run("datasets", experiments.Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 3 {
		t.Fatalf("expected 3 data sets, got %d", len(fig.Points))
	}
	for _, p := range fig.Points {
		if p.Series["tuples"] <= 0 || p.Series["attributes"] <= 0 {
			t.Errorf("%s: bad shape %v", p.X, p.Series)
		}
		if p.X == "WBC" && p.Series["attributes"] != 11 {
			t.Errorf("WBC should have 11 attributes, got %v", p.Series["attributes"])
		}
		if p.X == "Chess" && p.Series["attributes"] != 7 {
			t.Errorf("Chess should have 7 attributes, got %v", p.Series["attributes"])
		}
	}
	table := fig.Table()
	if !strings.Contains(table, "WBC") || !strings.Contains(table, "attributes") {
		t.Errorf("table rendering incomplete:\n%s", table)
	}
}

// TestCountFiguresQuick regenerates the count figures at quick scale. They are
// deterministic, so their tables are pinned byte for byte (the goldens were
// captured before the figures became one declared table); the sweeps over k
// must also show the monotonicity the paper reports: larger k, never more CFDs.
// `go test ./experiments -run TestCountFiguresQuick -update` rewrites them.
func TestCountFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment sweeps in -short mode")
	}
	for _, tc := range []struct {
		id      string
		sweepsK bool
	}{
		{"fig06", false},
		{"fig09", true},
		{"fig14", true},
		{"fig15", true},
		{"fig16", true},
		{"datasets", false},
	} {
		fig, err := experiments.Run(tc.id, experiments.Config{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		golden := filepath.Join("testdata", tc.id+".quick.golden")
		if *update {
			if err := os.WriteFile(golden, []byte(fig.Table()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := fig.Table(); got != string(want) {
			t.Errorf("%s differs from its golden\ngot:\n%s\nwant:\n%s", tc.id, got, want)
		}
		if !tc.sweepsK {
			continue
		}
		if len(fig.Points) < 2 {
			t.Fatalf("%s has %d points", tc.id, len(fig.Points))
		}
		prevTotal := -1.0
		for _, p := range fig.Points {
			total := p.Series[experiments.SeriesConstant] + p.Series[experiments.SeriesVariable]
			if prevTotal >= 0 && total > prevTotal {
				t.Errorf("%s: number of CFDs should not grow with k: %v then %v at k=%s", tc.id, prevTotal, total, p.X)
			}
			prevTotal = total
		}
	}
}

// TestTimeFigureQuick runs one timing figure twice at quick scale: both runs
// must list the series in their declared order and carry exactly those series,
// with positive timings, at every point.
func TestTimeFigureQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment sweeps in -short mode")
	}
	declared := []string{experiments.SeriesCTANE, experiments.SeriesNaiveFast, experiments.SeriesFastCFD}
	for run := 0; run < 2; run++ {
		fig, err := experiments.Run("fig08", experiments.Config{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(fig.Series, declared) {
			t.Errorf("run %d: series %v, declared %v", run, fig.Series, declared)
		}
		if len(fig.Points) != 3 {
			t.Fatalf("run %d: %d points, want k = 10, 20, 40", run, len(fig.Points))
		}
		for _, p := range fig.Points {
			if len(p.Series) != len(declared) {
				t.Errorf("run %d, k=%s: series %v, want exactly %v", run, p.X, p.Series, declared)
			}
			for _, s := range declared {
				if v, ok := p.Series[s]; !ok || v <= 0 {
					t.Errorf("run %d, k=%s: series %s missing or not positive (%v)", run, p.X, s, v)
				}
			}
		}
		if !strings.Contains(fig.Table(), "CTANE") {
			t.Error("table should mention CTANE")
		}
	}
}
