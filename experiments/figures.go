package experiments

import (
	"slices"

	"repro/cfd"
	"repro/dataset"
	"repro/discovery"
	"repro/rules"
)

// Series names used across figures.
const (
	SeriesCFDMiner  = "CFDMiner"
	SeriesCFDMiner2 = "CFDMiner(2)"
	SeriesCTANE     = "CTANE"
	SeriesNaiveFast = "NaiveFast"
	SeriesFastCFD   = "FastCFD"
	SeriesConstant  = "constant CFDs"
	SeriesVariable  = "variable CFDs"
)

// figure declares one figure of §6: which sweep it walks, which loop walks it
// and what is measured at every point. Arrays indexed by scale hold the quick,
// default and paper-scale value in that order.
type figure struct {
	id, title string
	run       func(*figure, Config) (*Figure, error)
	sweep     *sweep
	series    []series  // timeSweep: what is timed at every point, in this order
	counts    []counter // countSweep: what is counted in FastCFD's cover
	byVariant bool      // timeSweep: one row per series instead of per point
}

// series is one timed line of a figure: an algorithm, the options it runs
// under beyond the point's own, and per scale the largest swept value it is
// still run at (0 = every value).
type series struct {
	name string
	alg  discovery.Algorithm
	opts []discovery.Option
	upTo [3]float64
}

// counter is one counted class of a discovered cover.
type counter struct {
	name string
	of   func(*rules.Set) int
}

// axis is the parameter a sweep varies.
type axis int

const (
	byDBSIZE axis = iota
	byARITY
	byK
	byCF
)

func (a axis) String() string { return [...]string{"DBSIZE", "ARITY", "k", "CF"}[a] }

// data is the input to a generator: the shape of the relation to build. The
// real-data synthesisers read only the size.
type data struct {
	size, arity int
	cf          float64
}

// setting is a sweep at one scale: the data, the support threshold — fixed as
// k, or as the paper's SUP% ratio of DBSIZE — and the values the swept
// parameter takes.
type setting struct {
	data
	k      int
	ratio  float64
	values []float64
}

// with returns the setting with the swept parameter at v.
func (s setting) with(a axis, v float64) setting {
	switch a {
	case byDBSIZE:
		s.size = int(v)
	case byARITY:
		s.arity = int(v)
	case byK:
		s.k = int(v)
	case byCF:
		s.cf = v
	}
	return s
}

// sweep is an x-axis shared by the figures that walk it: a data generator,
// the swept parameter and its setting per scale. maxLHS bounds every run of
// the sweep (0 = unbounded).
type sweep struct {
	name   string
	gen    func(d data, seed int64) (*cfd.Relation, error)
	axis   axis
	maxLHS int
	at     [3]setting
}

func tax(d data, seed int64) (*cfd.Relation, error) {
	return dataset.Tax(dataset.TaxConfig{Size: d.size, Arity: d.arity, CF: d.cf, Seed: seed})
}

// The UCI data sets themselves cannot be shipped with an offline build, so
// shape-preserving synthesisers stand in for them.
func wbc(d data, seed int64) (*cfd.Relation, error)   { return dataset.WisconsinLike(d.size, seed), nil }
func chess(d data, seed int64) (*cfd.Relation, error) { return dataset.ChessLike(d.size, seed), nil }

// The synthetic sweeps of §6.2.1 (Figs. 5–10). SUP% is the paper's 0.1% at
// full scale and higher on the scaled-down DBSIZEs, so that the absolute
// threshold k — and with it the cover and the per-point cost — stays in a
// comparable range.
var (
	// Figs. 5 and 6: the paper sweeps DBSIZE from 20K to 1M.
	taxByDBSIZE = sweep{gen: tax, axis: byDBSIZE, at: [3]setting{
		{data: data{arity: 7, cf: 0.7}, ratio: 0.005, values: []float64{500, 1000, 2000}},
		{data: data{arity: 7, cf: 0.7}, ratio: 0.005, values: []float64{1000, 2000, 5000, 10000, 20000}},
		{data: data{arity: 7, cf: 0.7}, ratio: 0.001, values: []float64{20000, 50000, 100000, 300000, 1000000}},
	}}
	// Fig. 7.
	taxByARITY = sweep{gen: tax, axis: byARITY, at: [3]setting{
		{data: data{size: 1000, cf: 0.7}, ratio: 0.01, values: []float64{7, 9, 11}},
		{data: data{size: 2000, cf: 0.7}, ratio: 0.01, values: []float64{7, 9, 11, 13, 15}},
		{data: data{size: 20000, cf: 0.7}, ratio: 0.001, values: []float64{7, 11, 15, 19, 23, 27, 31}},
	}}
	// Figs. 8 and 9.
	taxByK = sweep{gen: tax, axis: byK, at: [3]setting{
		{data: data{size: 2000, arity: 7, cf: 0.7}, values: []float64{10, 20, 40}},
		{data: data{size: 5000, arity: 7, cf: 0.7}, values: []float64{20, 40, 80, 160}},
		{data: data{size: 100000, arity: 7, cf: 0.7}, values: []float64{50, 75, 100, 125, 150}},
	}}
	// Fig. 10: smaller CF means smaller active domains, more frequent
	// patterns and more work for the levelwise algorithm.
	taxByCF = sweep{gen: tax, axis: byCF, at: [3]setting{
		{data: data{size: 1000, arity: 9}, k: 10, values: []float64{0.3, 0.5, 0.7}},
		{data: data{size: 3000, arity: 9}, k: 15, values: []float64{0.3, 0.5, 0.7}},
		{data: data{size: 50000, arity: 9}, k: 50, values: []float64{0.3, 0.5, 0.7}},
	}}
	// The ablation's single representative configuration.
	taxAblation = sweep{gen: tax, axis: byDBSIZE, at: [3]setting{
		{data: data{arity: 9, cf: 0.7}, ratio: 0.005, values: []float64{1000}},
		{data: data{arity: 9, cf: 0.7}, ratio: 0.005, values: []float64{10000}},
		{data: data{arity: 9, cf: 0.7}, ratio: 0.001, values: []float64{50000}},
	}}
)

// The real-data sweeps of §6.2.2 (Figs. 11–16), each over k. The WBC and
// Chess schemas have dense domains; their pattern lattice is bounded to keep
// the default run laptop-sized. The same bound applies to every algorithm, so
// their relative behaviour (the shape of Figs. 11 and 12) is preserved.
var (
	wbcByK = sweep{name: "WBC", gen: wbc, axis: byK, maxLHS: 3, at: [3]setting{
		{data: data{size: 200}, values: []float64{20, 60}},
		{data: data{size: dataset.WBCSize}, values: []float64{10, 20, 40, 80}},
		{data: data{size: dataset.WBCSize}, values: []float64{10, 20, 40, 80}},
	}}
	chessByK = sweep{name: "Chess", gen: chess, axis: byK, maxLHS: 3, at: [3]setting{
		{data: data{size: 1000}, values: []float64{20, 60}},
		{data: data{size: 3000}, values: []float64{10, 20, 40, 80}},
		{data: data{size: dataset.ChessSize}, values: []float64{10, 20, 40, 80}},
	}}
	realTaxByK = sweep{name: "Tax", gen: tax, axis: byK, at: [3]setting{
		{data: data{size: 1000, arity: 9, cf: 0.7}, values: []float64{10, 40}},
		{data: data{size: 5000, arity: 9, cf: 0.7}, values: []float64{20, 40, 80, 160}},
		{data: data{size: 100000, arity: 9, cf: 0.7}, values: []float64{20, 40, 80, 160}},
	}}
)

// The series lists more than one figure uses.
var (
	generalMiners = []series{
		{name: SeriesCTANE, alg: discovery.AlgCTANE},
		{name: SeriesNaiveFast, alg: discovery.AlgNaiveFast},
		{name: SeriesFastCFD, alg: discovery.AlgFastCFD},
	}
	ctaneAndFastCFD = []series{
		{name: SeriesCTANE, alg: discovery.AlgCTANE},
		{name: SeriesFastCFD, alg: discovery.AlgFastCFD},
	}
	classes = []counter{
		{SeriesConstant, (*rules.Set).Constant},
		{SeriesVariable, (*rules.Set).Variable},
	}
	classesAndTotal = append(slices.Clip(classes), counter{"total", (*rules.Set).Len})
)

// figures is every figure of the evaluation, in presentation order.
var figures = []figure{
	{id: "fig05", title: "Scalability w.r.t. DBSIZE (Tax, ARITY=7, CF=0.7, fixed SUP%)",
		run: timeSweep, sweep: &taxByDBSIZE, series: []series{
			{name: SeriesCFDMiner, alg: discovery.AlgCFDMiner},
			{name: SeriesCFDMiner2, alg: discovery.AlgCFDMiner, opts: []discovery.Option{discovery.WithSupport(2)}},
			{name: SeriesCTANE, alg: discovery.AlgCTANE, upTo: [3]float64{2000, 20000, 1000000}},
			// The paper takes the quadratic NaiveFast backend only to 300K.
			{name: SeriesNaiveFast, alg: discovery.AlgNaiveFast, upTo: [3]float64{2000, 10000, 300000}},
			{name: SeriesFastCFD, alg: discovery.AlgFastCFD},
		}},
	{id: "fig06", title: "Number of CFDs found w.r.t. DBSIZE",
		run: countSweep, sweep: &taxByDBSIZE, counts: classes},
	{id: "fig07", title: "Scalability w.r.t. ARITY (Tax, CF=0.7, fixed SUP%)",
		run: timeSweep, sweep: &taxByARITY, series: []series{
			{name: SeriesCFDMiner, alg: discovery.AlgCFDMiner},
			// The paper observes that CTANE cannot complete beyond arity 17.
			{name: SeriesCTANE, alg: discovery.AlgCTANE, upTo: [3]float64{9, 11, 17}},
			{name: SeriesNaiveFast, alg: discovery.AlgNaiveFast},
			{name: SeriesFastCFD, alg: discovery.AlgFastCFD},
		}},
	// CTANE is highly sensitive to k while NaiveFast and FastCFD are not.
	{id: "fig08", title: "Scalability w.r.t. support threshold k (Tax)",
		run: timeSweep, sweep: &taxByK, series: generalMiners},
	{id: "fig09", title: "Number of CFDs found w.r.t. k",
		run: countSweep, sweep: &taxByK, counts: classes},
	{id: "fig10", title: "Scalability w.r.t. correlation factor CF (Tax)",
		run: timeSweep, sweep: &taxByCF, series: generalMiners},
	{id: "fig11", title: "Wisconsin breast cancer: response time vs k",
		run: timeSweep, sweep: &wbcByK, series: ctaneAndFastCFD},
	{id: "fig12", title: "Chess: response time vs k",
		run: timeSweep, sweep: &chessByK, series: ctaneAndFastCFD},
	{id: "fig13", title: "Tax: response time vs k",
		run: timeSweep, sweep: &realTaxByK, series: ctaneAndFastCFD},
	{id: "fig14", title: "Wisconsin breast cancer: number of CFDs vs k",
		run: countSweep, sweep: &wbcByK, counts: classesAndTotal},
	{id: "fig15", title: "Chess: number of CFDs vs k",
		run: countSweep, sweep: &chessByK, counts: classesAndTotal},
	{id: "fig16", title: "Tax: number of CFDs vs k",
		run: countSweep, sweep: &realTaxByK, counts: classesAndTotal},
	// An extension experiment: it isolates the two design choices FastCFD
	// stacks on top of the naive depth-first search — the closed-item-set
	// difference sets and the CFDMiner delegation of constant CFDs.
	{id: "ablation", title: "Ablation: FastCFD optimisations (extension, not a paper figure)",
		run: timeSweep, sweep: &taxAblation, byVariant: true, series: []series{
			{name: "FastCFD (closed diffsets + CFDMiner constants)", alg: discovery.AlgFastCFD},
			{name: "FastCFD without CFDMiner delegation", alg: discovery.AlgFastCFD, opts: []discovery.Option{discovery.WithoutItemsetOptimisation()}},
			{name: "NaiveFast (partition diffsets)", alg: discovery.AlgNaiveFast},
			{name: "CTANE", alg: discovery.AlgCTANE},
		}},
	{id: "datasets", title: "Data set shapes (§6.1 table)", run: shapes},
}
