package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, timed from outside.
type span struct {
	id, parent int // parent 0 = root
	name       string
	layer      string
	op         int // the timed op (or probe repetition) the span belongs to
	lane       int // client index; spans of one lane nest by time
	start, end time.Duration
	counts     map[string]float64 // attached to root spans from Stats
}

// tracer records spans in memory and writes them once, at exit. A nil
// tracer records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent int, layer, name string, op, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, layer: layer, op: op, lane: lane, start: now})
	return len(t.spans)
}

// end closes span id, attaching counts (may be nil).
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
	t.spans[id-1].counts = counts
}

// selfTimes returns each span's duration minus the part its children cover.
// Children of one parent run one after another here, so the covered part is
// the sum of their durations.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent > 0 {
			self[s.parent-1] -= s.end - s.start
		}
	}
	return self
}

// write stores the spans as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev): one complete ("X") event per span, microseconds.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	self := t.selfTimes()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent, "op": s.op, "workload": t.workload, "self_us": us(self[i])}
		for k, v := range s.counts {
			args[k] = v
		}
		events = append(events, event{Name: s.name, Cat: s.layer, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.lane, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
