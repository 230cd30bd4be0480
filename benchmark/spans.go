package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"repro/internal/trace"
)

// span is one timed interval: the harness's own record around a call
// into a layer, or a program span converted from trace.SpanData. Spans
// of one run (a workload, or a staged design) share Run.
type span struct {
	ID, Parent uint64 // Parent 0 = root
	Name, Run  string
	Start, End time.Duration // offsets from the recorder's epoch
}

// recorder keeps the harness's spans in memory until exit. It is the
// harness's only stopwatch for layer timings: every per-layer time is
// the duration of a recorded span, so trace.json shows exactly what was
// measured. Used from the main goroutine only.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(run, name string, parent uint64) uint64 {
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Run: run, Start: time.Since(r.epoch)})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id uint64) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.epoch)
	return s.End - s.Start
}

// time runs f inside a span and returns how long it took.
func (r *recorder) time(run, name string, parent uint64, f func()) time.Duration {
	id := r.begin(run, name, parent)
	f()
	return r.end(id)
}

// programSpans converts the program's finished spans to the harness's
// shape so one fold serves both.
func programSpans(run string, data []trace.SpanData) []span {
	out := make([]span, len(data))
	for i, d := range data {
		out[i] = span{ID: d.ID, Parent: d.Parent, Name: d.Name, Run: run, Start: d.Start, End: d.Start + d.Dur}
	}
	return out
}

// selfTimes folds spans to self time per name: a span's duration minus
// the part of its interval that its child spans cover. Children run in
// parallel under campaign and dist spans, so coverage is the union of
// the child intervals clipped to the parent, never their sum; self time
// therefore cannot go negative. Parent links alone decide nesting: a
// span the program starts detached (journal.append under its mutex)
// stays a root and its time also remains in its caller's self time.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]int)
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// writeChromeTrace writes the harness's spans as Chrome trace_event
// JSON: one lane (tid) per run, in order of first appearance.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint64 `json:"args"`
	}
	lanes := map[string]int{}
	events := make([]any, 0, len(r.spans))
	for _, s := range r.spans {
		tid, ok := lanes[s.Run]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Run] = tid
			events = append(events, map[string]any{
				"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]string{"name": s.Run},
			})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]uint64{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.MarshalIndent(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
