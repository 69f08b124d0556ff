package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteTextGolden pins the exposition format byte for byte: HELP/TYPE
// lines, sorted families, sorted children, cumulative histogram buckets with
// _sum/_count, func-backed metrics evaluated at scrape time, and the
// OpenMetrics EOF trailer.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cfd_z_total", "a plain counter").Add(3)
	cv := r.CounterVec("cfd_b_total", "a labeled counter", "kind")
	cv.With("insert").Add(2)
	cv.With("delete").Inc()
	r.Gauge("cfd_a_gauge", "a plain gauge").Set(1.5)
	r.GaugeFunc("cfd_f_gauge", "a func gauge", func() float64 { return 7 })
	r.CounterFunc("cfd_g_total", "a func counter", func() uint64 { return 9 })
	h := r.Histogram("cfd_h_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := `# HELP cfd_a_gauge a plain gauge
# TYPE cfd_a_gauge gauge
cfd_a_gauge 1.5
# HELP cfd_b_total a labeled counter
# TYPE cfd_b_total counter
cfd_b_total{kind="delete"} 1
cfd_b_total{kind="insert"} 2
# HELP cfd_f_gauge a func gauge
# TYPE cfd_f_gauge gauge
cfd_f_gauge 7
# HELP cfd_g_total a func counter
# TYPE cfd_g_total counter
cfd_g_total 9
# HELP cfd_h_seconds a histogram
# TYPE cfd_h_seconds histogram
cfd_h_seconds_bucket{le="0.1"} 1
cfd_h_seconds_bucket{le="1"} 2
cfd_h_seconds_bucket{le="+Inf"} 3
cfd_h_seconds_sum 5.55
cfd_h_seconds_count 3
# HELP cfd_z_total a plain counter
# TYPE cfd_z_total counter
cfd_z_total 3
# EOF
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWriteTextHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("cfd_hv_seconds", "labeled histogram", []float64{1}, "mode")
	hv.With("patch").Observe(0.5)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{
		`cfd_hv_seconds_bucket{mode="patch",le="1"} 1`,
		`cfd_hv_seconds_bucket{mode="patch",le="+Inf"} 1`,
		`cfd_hv_seconds_sum{mode="patch"} 0.5`,
		`cfd_hv_seconds_count{mode="patch"} 1`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestWriteTextEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("cfd_esc_total", "help with \\ and\nnewline", "val").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP cfd_esc_total help with \\ and\nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `cfd_esc_total{val="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestRegisterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("cfd_same_total", "one")
	b := r.Counter("cfd_same_total", "two") // same identity: returns the first
	if a != b {
		t.Fatal("re-registration with the same identity must return the same metric")
	}
}

func TestRegisterConflictPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"kind", func(r *Registry) { r.Counter("cfd_x", "c"); r.Gauge("cfd_x", "g") }},
		{"labels", func(r *Registry) { r.CounterVec("cfd_x", "c", "a"); r.CounterVec("cfd_x", "c", "b") }},
		{"buckets", func(r *Registry) {
			r.Histogram("cfd_x", "h", []float64{1})
			r.Histogram("cfd_x", "h", []float64{2})
		}},
		{"bad-name", func(r *Registry) { r.Counter("cfd bad name", "c") }},
		{"bad-label", func(r *Registry) { r.CounterVec("cfd_x", "c", "bad label") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s conflict must panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("cfd_b_total", "b")
	r.Gauge("cfd_a_gauge", "a")
	got := r.Names()
	if len(got) != 2 || got[0] != "cfd_a_gauge" || got[1] != "cfd_b_total" {
		t.Fatalf("Names() = %v, want sorted [cfd_a_gauge cfd_b_total]", got)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("cfd_req_total", "requests").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "cfd_req_total 1\n") || !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("unexpected body:\n%s", body)
	}
}

// TestGaugeFuncVec: a func-backed family is read once per scrape, its
// children exposed in the order of their label values.
func TestGaugeFuncVec(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.GaugeFuncVec("cfd_k_groups", "a func family", "members", []string{"large", "one"}, func() []float64 {
		calls++
		return []float64{2, 40}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := `# HELP cfd_k_groups a func family
# TYPE cfd_k_groups gauge
cfd_k_groups{members="large"} 2
cfd_k_groups{members="one"} 40
# EOF
`
	if got := b.String(); got != want || calls != 1 {
		t.Fatalf("%d calls, exposition:\n%s--- want one call and ---\n%s", calls, got, want)
	}
}
