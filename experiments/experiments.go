// Package experiments regenerates every figure of the paper's evaluation
// (§6): the scalability sweeps over DBSIZE, ARITY, the support threshold k and
// the correlation factor CF on synthetic Tax data (Figs. 5–10), and the
// real-data experiments on the Wisconsin-breast-cancer- and Chess-shaped data
// sets plus Tax (Figs. 11–16).
//
// Each figure is produced as a Figure value: a swept parameter on the x-axis
// and one series per algorithm (response time in seconds) or per CFD class
// (counts). Every figure is one entry of the table in figures.go — its sweep
// per scale and its ordered series — run by the two loops below; the
// cmd/cfdbench command prints the resulting tables.
//
// Scale: by default the sweeps are scaled down from the paper's testbed sizes
// so that the whole suite runs on a laptop in minutes; Config.Full selects the
// paper-scale parameters (which can take hours, as they did in the paper), and
// Config.Quick selects a minimal smoke-test scale.
package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/cfd"
	"repro/discovery"
	"repro/rules"
)

// Config controls the scale of the experiment sweeps.
type Config struct {
	// Full selects the paper-scale parameters (DBSIZE up to 1M, ARITY up to 31,
	// the full UCI data set sizes). Expect multi-hour runs, as in the paper.
	Full bool
	// Quick selects a minimal scale for smoke tests; it wins over Full.
	Quick bool
	// Seed makes data generation deterministic (default 1).
	Seed int64
	// Workers bounds the goroutines of each discovery run (0 = one per CPU,
	// 1 = sequential; see discovery.WithWorkers). Paper-faithful timing
	// comparisons should set 1, since the paper's testbed was single-threaded.
	Workers int
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// The scales index the per-scale arrays of the figure table.
const (
	quick = iota
	standard
	full
)

func (c Config) scale() int {
	switch {
	case c.Quick:
		return quick
	case c.Full:
		return full
	}
	return standard
}

// Point is one x-position of a figure: the swept parameter's value and the
// measured series at that position. Missing series (an algorithm skipped at
// that scale) are absent from the map.
type Point struct {
	X      string
	Series map[string]float64
}

// Figure is one reproduced figure of the paper.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []string
	Points []Point
}

// IDs lists the available figure identifiers in presentation order.
func IDs() []string {
	ids := make([]string, len(figures))
	for i := range figures {
		ids[i] = figures[i].id
	}
	return ids
}

// Title returns the title of a figure id, or the empty string if unknown.
func Title(id string) string {
	if f := lookup(id); f != nil {
		return f.title
	}
	return ""
}

// Run regenerates the figure with the given id.
func Run(id string, cfg Config) (*Figure, error) {
	f := lookup(id)
	if f == nil {
		return nil, fmt.Errorf("experiments: unknown figure %q (available: %s)", id, strings.Join(IDs(), ", "))
	}
	return f.run(f, cfg)
}

func lookup(id string) *figure {
	for i := range figures {
		if figures[i].id == id {
			return &figures[i]
		}
	}
	return nil
}

// Table renders the figure as a fixed-width text table.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "x-axis: %s, values: %s\n", f.XLabel, f.YLabel)
	header := append([]string{f.XLabel}, f.Series...)
	widths := make([]int, len(header))
	rows := [][]string{header}
	for _, p := range f.Points {
		row := []string{p.X}
		for _, s := range f.Series {
			v, ok := p.Series[s]
			switch {
			case !ok:
				row = append(row, "-")
			case f.YLabel == "seconds":
				row = append(row, fmt.Sprintf("%.3f", v))
			default:
				row = append(row, fmt.Sprintf("%.0f", v))
			}
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range row {
				b.WriteString(strings.Repeat("-", widths[i]))
				b.WriteString("  ")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// point is one x-position of a sweep, ready to mine: the swept value, the
// relation generated for it and the support threshold in force there.
type point struct {
	x   float64
	rel *cfd.Relation
	k   int
}

// label renders the swept value the way the x column prints it.
func (p point) label() string { return strconv.FormatFloat(p.x, 'f', -1, 64) }

// each visits the sweep's points at the configured scale in order. The
// relation is regenerated only where the swept value changes the data, so a
// sweep over k mines one relation throughout.
func (sw *sweep) each(cfg Config, visit func(point) error) error {
	base := sw.at[cfg.scale()]
	var rel *cfd.Relation
	var built data
	for _, v := range base.values {
		s := base.with(sw.axis, v)
		if rel == nil || s.data != built {
			var err error
			if rel, err = sw.gen(s.data, cfg.seed()); err != nil {
				return err
			}
			built = s.data
		}
		if err := visit(point{x: v, rel: rel, k: s.support()}); err != nil {
			return err
		}
	}
	return nil
}

// support is the absolute threshold k of a setting: the fixed one if it has
// one, else the paper's SUP% of its DBSIZE. The floor of 5 keeps the
// scaled-down sweeps from degenerating into the k=2 worst case that only the
// paper-scale DBSIZE values would justify.
func (s setting) support() int {
	if s.k != 0 {
		return s.k
	}
	return max(5, int(math.Round(float64(s.size)*s.ratio)))
}

// mine runs one algorithm to its full cover at a sweep point, under the
// sweep's LHS bound and the configuration's worker budget; extra options come
// last so that a series can override the point's threshold.
func (sw *sweep) mine(cfg Config, alg discovery.Algorithm, p point, extra ...discovery.Option) (*rules.Set, error) {
	opts := slices.Concat([]discovery.Option{
		discovery.WithSupport(p.k), discovery.WithMaxLHS(sw.maxLHS), discovery.WithWorkers(cfg.Workers),
	}, extra)
	return discovery.NewEngine(alg, p.rel, opts...).Run(context.Background())
}

// timeSweep produces a response-time figure: at every point of the sweep each
// series is mined in its declared order — so each algorithm meets the same
// heap history on every run — unless the point lies above the series' cap.
// A byVariant figure (the ablation) turns the table on its side: one row per
// series, its response time beside the size of its cover.
func timeSweep(f *figure, cfg Config) (*Figure, error) {
	fig := &Figure{ID: f.id, Title: f.title, XLabel: f.sweep.axis.String(), YLabel: "seconds"}
	if f.byVariant {
		fig.XLabel, fig.Series = "variant", []string{"seconds", "#CFDs"}
	} else {
		for _, s := range f.series {
			fig.Series = append(fig.Series, s.name)
		}
	}
	err := f.sweep.each(cfg, func(p point) error {
		row := Point{X: p.label(), Series: map[string]float64{}}
		for _, s := range f.series {
			if limit := s.upTo[cfg.scale()]; limit != 0 && p.x > limit {
				continue
			}
			set, err := f.sweep.mine(cfg, s.alg, p, s.opts...)
			if err != nil {
				return err
			}
			sec := set.Provenance().Elapsed.Seconds()
			if f.byVariant {
				fig.Points = append(fig.Points, Point{X: s.name, Series: map[string]float64{
					"seconds": sec, "#CFDs": float64(set.Len()),
				}})
			} else {
				row.Series[s.name] = sec
			}
		}
		if !f.byVariant {
			fig.Points = append(fig.Points, row)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// countSweep produces a count figure: at every point of the sweep FastCFD's
// cover is mined once and each declared class of it counted.
func countSweep(f *figure, cfg Config) (*Figure, error) {
	fig := &Figure{ID: f.id, Title: f.title, XLabel: f.sweep.axis.String(), YLabel: "#CFDs"}
	for _, c := range f.counts {
		fig.Series = append(fig.Series, c.name)
	}
	err := f.sweep.each(cfg, func(p point) error {
		set, err := f.sweep.mine(cfg, discovery.AlgFastCFD, p)
		if err != nil {
			return err
		}
		row := Point{X: p.label(), Series: map[string]float64{}}
		for _, c := range f.counts {
			row.Series[c.name] = float64(c.of(set))
		}
		fig.Points = append(fig.Points, row)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// shapes reports the sizes of the real-data experiments' relations at the
// configured scale, mirroring the parameter table of §6.1.
func shapes(f *figure, cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: f.id, Title: f.title, XLabel: "data set", YLabel: "count",
		Series: []string{"tuples", "attributes"},
	}
	for _, sw := range []*sweep{&wbcByK, &chessByK, &realTaxByK} {
		rel, err := sw.gen(sw.at[cfg.scale()].data, cfg.seed())
		if err != nil {
			return nil, err
		}
		fig.Points = append(fig.Points, Point{X: sw.name, Series: map[string]float64{
			"tuples": float64(rel.Size()), "attributes": float64(rel.Arity()),
		}})
	}
	return fig, nil
}
