package main

import (
	"strconv"
	"strings"
)

// promSample is one series of a /metrics scrape: the family name, the raw
// label block (without braces, "" when unlabelled) and the value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// parseProm reads the Prometheus text exposition format as obs.Registry
// renders it: one "name{labels} value" line per series, '#' comment lines
// and blank lines ignored. Lines that do not parse are skipped; the scrape
// is diagnostic, not an input the benchmark's correctness depends on.
func parseProm(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s := promSample{name: series, value: v}
		if open := strings.IndexByte(series, '{'); open >= 0 && strings.HasSuffix(series, "}") {
			s.name, s.labels = series[:open], series[open+1:len(series)-1]
		}
		out = append(out, s)
	}
	return out
}

// promSum adds up every series of the named family whose label block
// contains all of the given `key="value"` fragments.
func promSum(samples []promSample, name string, labelFragments ...string) float64 {
	total := 0.0
next:
	for _, s := range samples {
		if s.name != name {
			continue
		}
		for _, frag := range labelFragments {
			if !strings.Contains(s.labels, frag) {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// promDelta is promSum(after) - promSum(before): what a counter or a
// histogram's _sum/_count gained over the measured window. A server that
// restarted inside the window starts its counters from zero again; callers
// scrape each incarnation separately.
func promDelta(before, after []promSample, name string, labelFragments ...string) float64 {
	return promSum(after, name, labelFragments...) - promSum(before, name, labelFragments...)
}
