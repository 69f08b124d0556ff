package obs

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a concurrency-safe collection of named metric families, exposed
// in the Prometheus/OpenMetrics text format by WriteText. Registration is
// get-or-create: asking for an existing name with the same type, labels and
// buckets returns the existing metric (so independent components can share
// series), while a conflicting re-registration panics — metric identity is a
// programming-time contract, not a runtime condition.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// family is one registered metric family: exactly one of counterVec,
// gaugeVec, histogramVec, gaugeFn or counterFn is set, according to kind. An
// unlabeled counter, gauge or histogram is the one child of a vec with no
// labels.
type family struct {
	name    string
	help    string
	kind    string // "counter" | "gauge" | "histogram"
	labels  []string
	buckets []float64

	counterVec   *CounterVec
	gaugeVec     *GaugeVec
	histogramVec *HistogramVec
	gaugeFn      func() float64
	counterFn    func() uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// register implements the get-or-create contract shared by every constructor.
func (r *Registry) register(name, help, kind string, labels []string, buckets []float64, build func(*family)) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !nameRE.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.fams[name]; f != nil {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different type, labels or buckets", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets}
	build(f)
	r.fams[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// CounterVec registers (or returns) a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(name, help, "counter", labels, nil, func(f *family) {
		f.counterVec = &CounterVec{newVec(labels, func() *Counter { return &Counter{} })}
	})
	if f.counterVec == nil {
		panic(fmt.Sprintf("obs: metric %s is not a counter vec", name))
	}
	return f.counterVec
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — for monotonic totals a component already tracks itself.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, "counter", nil, nil, func(f *family) { f.counterFn = fn })
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge { return r.GaugeVec(name, help).With() }

// GaugeVec registers (or returns) a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.register(name, help, "gauge", labels, nil, func(f *family) {
		f.gaugeVec = &GaugeVec{newVec(labels, func() *Gauge { return &Gauge{} })}
	})
	if f.gaugeVec == nil {
		panic(fmt.Sprintf("obs: metric %s is not a gauge vec", name))
	}
	return f.gaugeVec
}

// GaugeFunc registers a gauge whose value is read from fn at exposition time —
// the zero-hot-path-cost way to expose state a component can already report
// (queue depths, epochs, sizes).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, nil, func(f *family) { f.gaugeFn = fn })
}

// Histogram registers (or returns) an unlabeled histogram with the given
// bucket upper bounds (nil uses DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or returns) a histogram family with the given bucket
// layout and label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.register(name, help, "histogram", labels, buckets, func(f *family) {
		f.histogramVec = &HistogramVec{newVec(labels, func() *Histogram { return newHistogram(buckets) })}
	})
	if f.histogramVec == nil {
		panic(fmt.Sprintf("obs: metric %s is not a histogram vec", name))
	}
	return f.histogramVec
}

// Names returns the registered family names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteText writes every family in the Prometheus text exposition format
// (readable by any Prometheus/OpenMetrics scraper), families sorted by name,
// children sorted by label values, terminated by the OpenMetrics "# EOF"
// trailer. Func-backed metrics are evaluated here, at scrape time.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		switch {
		case f.counterFn != nil:
			fmt.Fprintf(&b, "%s %d\n", f.name, f.counterFn())
		case f.gaugeFn != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.gaugeFn()))
		case f.counterVec != nil:
			_, values, children := f.counterVec.snapshot()
			for i, c := range children {
				fmt.Fprintf(&b, "%s %d\n", series(f.name, formatLabels(f.labels, values[i])), c.Value())
			}
		case f.gaugeVec != nil:
			_, values, children := f.gaugeVec.snapshot()
			for i, g := range children {
				fmt.Fprintf(&b, "%s %s\n", series(f.name, formatLabels(f.labels, values[i])), formatFloat(g.Value()))
			}
		case f.histogramVec != nil:
			_, values, children := f.histogramVec.snapshot()
			for i, h := range children {
				writeHistogram(&b, f.name, formatLabels(f.labels, values[i]), h)
			}
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
// labels is the pre-formatted shared label pairs ("" when unlabeled).
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	joint := func(extra string) string {
		switch {
		case labels == "":
			return extra
		case extra == "":
			return labels
		default:
			return labels + "," + extra
		}
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, joint(`le="`+formatFloat(bound)+`"`), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{%s} %d\n", name, joint(`le="+Inf"`), cum)
	fmt.Fprintf(b, "%s %s\n", series(name+"_sum", labels), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s %d\n", series(name+"_count", labels), h.Count())
}

// series names one series: the metric name, followed by its pre-formatted
// label pairs in braces when it has any.
func series(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }

// Handler serves the registry over HTTP — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
