package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the programs are a later change). Times are nanoseconds
// since the tracer was created. Parent is the id of the span that was open
// when this one began, or -1 for a root; Op numbers the replay's root calls,
// and a root and everything beneath it share one Op (a durable ApplyBatch and
// the WAL append under it, say).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the replay ends. The traced replay is
// sequential, and the one callback that fires from inside a layer (the WAL
// shim under Engine.ApplyBatch) runs on the calling goroutine, so the open
// spans form a stack and no lock is needed. A nil or disabled tracer still
// runs the wrapped function; that is how the tracing overhead is measured.
type tracer struct {
	t0    time.Time
	on    bool
	op    int
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), on: true} }

// do runs f inside a span named "<layer>.<name>" and returns its duration.
func (t *tracer) do(layer, name string, f func()) time.Duration {
	if t == nil || !t.on {
		start := time.Now()
		f()
		return time.Since(start)
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.op++
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Layer: layer, Name: layer + "." + name})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	f()
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].dur()
}

// durations returns the duration in seconds of every span with the given
// full name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of that interval its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := parent.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return time.Duration(total)
}

// traceFile is the document written as trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	SelfS    map[string]float64 `json:"self_seconds_by_layer"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	doc := traceFile{Workload: workload, Seed: seed, SelfS: map[string]float64{}, Spans: t.spans}
	for layer, d := range selfTimes(t.spans) {
		doc.SelfS[layer] = d.Seconds()
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
