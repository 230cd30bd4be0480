package trace

import (
	"encoding/json"
	"io"
)

// chromeEvent is one Chrome trace_event "complete" event (ph "X"): the
// format chrome://tracing and Perfetto load directly. Timestamps and
// durations are microseconds.
//
// Lane assignment: pid is constant, tid is the span's root ancestor id,
// so each campaign point (or other root span — a detached journal sync,
// a whole campaign.run) renders as its own horizontal track with its
// children nested inside by time range.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeTrace is the top-level JSON object ({"traceEvents": [...]}) —
// the object form, so viewers that require metadata keys still load it.
type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	// DroppedSpans reports finished spans evicted by the tracer's
	// retention limit; a non-zero value means the timeline has holes.
	DroppedSpans int64 `json:"droppedSpans,omitempty"`
}

// category returns the span name's leading dotted segment ("flow.synth"
// -> "flow"), used as the Chrome event category for per-subsystem
// filtering in the viewer.
func category(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// WriteChromeTrace exports every retained finished span as Chrome
// trace_event JSON. Events are sorted by start time then id, so the
// output is stable for a deterministic span set (fixed clock, fixed id
// order). Live (unfinished) spans are not exported — export after the
// campaign completes, or accept holes.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans, dropped := t.Snapshot()

	// Root resolution: walk parents to assign each span its lane.
	parentOf := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parentOf[s.ID] = s.Parent
	}
	rootCache := make(map[uint64]uint64, len(spans))
	var rootOf func(id uint64) uint64
	rootOf = func(id uint64) uint64 {
		if r, ok := rootCache[id]; ok {
			return r
		}
		rootCache[id] = id // ends the walk on a parent cycle, which ingested spans can hold
		p, ok := parentOf[id]
		r := id
		if ok && p != 0 {
			// A parent missing from the snapshot (still live, or evicted)
			// terminates the walk at the deepest known ancestor.
			if _, known := parentOf[p]; known {
				r = rootOf(p)
			} else {
				r = p
			}
		}
		rootCache[id] = r
		return r
	}

	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DroppedSpans: dropped}
	for _, s := range spans {
		args := make(map[string]string, len(s.Attrs)+1)
		args["outcome"] = string(s.Outcome)
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  category(s.Name),
			Ph:   "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  rootOf(s.ID),
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
