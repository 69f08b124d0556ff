package experiments

import "testing"

// TestFiguresQuick runs every declared figure at quick scale and holds the
// result against the table: each series is present — with a positive time or
// a count — at every point its cap allows and absent above it, and the points
// are the sweep's values in order.
func TestFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment sweeps in -short mode")
	}
	cfg := Config{Quick: true}
	for i := range figures {
		f := &figures[i]
		t.Run(f.id, func(t *testing.T) {
			fig, err := Run(f.id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fig.ID != f.id || fig.Title != f.title {
				t.Errorf("figure is labelled %q / %q", fig.ID, fig.Title)
			}
			// One cap pinned from outside the table: CTANE stops at ARITY 9.
			if f.id == "fig07" {
				for _, p := range fig.Points {
					if _, ok := p.Series[SeriesCTANE]; ok != (p.X != "11") {
						t.Errorf("ARITY %s: CTANE present = %v", p.X, ok)
					}
				}
			}
			switch {
			case f.sweep == nil: // the data set shapes
				if len(fig.Points) != 3 {
					t.Errorf("%d data sets, want 3", len(fig.Points))
				}
			case f.byVariant:
				if len(fig.Points) != len(f.series) {
					t.Fatalf("%d rows for %d variants", len(fig.Points), len(f.series))
				}
				for j, s := range f.series {
					p := fig.Points[j]
					if p.X != s.name || p.Series["seconds"] <= 0 || p.Series["#CFDs"] <= 0 {
						t.Errorf("row %d is %q %v, want %q with a time and a cover", j, p.X, p.Series, s.name)
					}
				}
			default:
				values := f.sweep.at[quick].values
				if len(fig.Points) != len(values) {
					t.Fatalf("%d points for %d swept values", len(fig.Points), len(values))
				}
				for j, x := range values {
					p := fig.Points[j]
					if want := (point{x: x}).label(); p.X != want {
						t.Errorf("point %d is at %s, want %s", j, p.X, want)
					}
					for _, s := range f.series {
						v, ok := p.Series[s.name]
						limit := s.upTo[quick]
						switch run := limit == 0 || x <= limit; {
						case run && (!ok || v <= 0):
							t.Errorf("%s at %s: missing or not positive (%v)", s.name, p.X, v)
						case !run && ok:
							t.Errorf("%s at %s: run above its cap %v", s.name, p.X, limit)
						}
					}
					for _, c := range f.counts {
						if _, ok := p.Series[c.name]; !ok {
							t.Errorf("%s at %s: missing", c.name, p.X)
						}
					}
					if want := len(f.counts); want > 0 && len(p.Series) != want {
						t.Errorf("point %s carries %v, want %d counts", p.X, p.Series, want)
					}
				}
			}
		})
	}

}
