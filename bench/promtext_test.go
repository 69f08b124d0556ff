package main

import "testing"

const scrapeBefore = `# HELP cfd_http_request_duration_seconds HTTP request duration by route pattern and method.
# TYPE cfd_http_request_duration_seconds histogram
cfd_http_request_duration_seconds_bucket{route="/batch",method="POST",le="0.001"} 3
cfd_http_request_duration_seconds_sum{route="/batch",method="POST"} 0.25
cfd_http_request_duration_seconds_count{route="/batch",method="POST"} 10
cfd_http_request_duration_seconds_sum{route="/tuples/{id}",method="PUT"} 0.5
cfd_http_request_duration_seconds_sum{route="/tuples/{id}",method="DELETE"} 0.125
cfd_store_compactions_total{result="ok"} 2
cfd_wal_fsync_duration_seconds_sum 1.5
cfd_engine_epoch 41

garbage line without a number
# EOF
`

const scrapeAfter = `cfd_http_request_duration_seconds_sum{route="/batch",method="POST"} 1.25
cfd_http_request_duration_seconds_sum{route="/tuples/{id}",method="PUT"} 0.75
cfd_http_request_duration_seconds_sum{route="/tuples/{id}",method="DELETE"} 0.125
cfd_store_compactions_total{result="ok"} 5
cfd_store_compactions_total{result="error"} 1
cfd_wal_fsync_duration_seconds_sum 4
`

func TestParseProm(t *testing.T) {
	samples := parseProm(scrapeBefore)
	if len(samples) != 8 {
		t.Fatalf("parsed %d series, want 8: %+v", len(samples), samples)
	}
	// A route label holding braces must not confuse the label block.
	put := samples[3]
	if put.name != "cfd_http_request_duration_seconds_sum" || put.labels != `route="/tuples/{id}",method="PUT"` || put.value != 0.5 {
		t.Errorf("series 3 = %+v", put)
	}
	if last := samples[7]; last.name != "cfd_engine_epoch" || last.labels != "" || last.value != 41 {
		t.Errorf("unlabelled series = %+v", last)
	}
}

func TestPromDelta(t *testing.T) {
	before, after := parseProm(scrapeBefore), parseProm(scrapeAfter)
	for _, tc := range []struct {
		name  string
		frags []string
		want  float64
	}{
		{"cfd_http_request_duration_seconds_sum", nil, 1.25},                      // all routes: 2.125 - 0.875
		{"cfd_http_request_duration_seconds_sum", []string{`route="/batch"`}, 1},  // one route
		{"cfd_http_request_duration_seconds_sum", []string{`method="DELETE"`}, 0}, // unchanged
		{"cfd_store_compactions_total", nil, 4},                                   // a series born inside the window
		{"cfd_store_compactions_total", []string{`result="ok"`}, 3},
		{"cfd_wal_fsync_duration_seconds_sum", nil, 2.5},
		{"cfd_no_such_family", nil, 0},
	} {
		if got := promDelta(before, after, tc.name, tc.frags...); got != tc.want {
			t.Errorf("promDelta(%s, %v) = %v, want %v", tc.name, tc.frags, got, tc.want)
		}
	}
}
