package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one bracket around calls into a layer: name, start, end and
// the span that caused it, with the layer's counters sampled at the
// closing boundary. All spans of one traced pass share the workload
// name as their trace id.
type span struct {
	name     string
	parent   int // index into tracer.spans, -1 for the workload span
	start    time.Duration
	end      time.Duration
	items    uint64 // calls bracketed (packets, sessions, …)
	counters map[string]uint64
}

// tracer keeps the traced pass's spans in memory; they are written as
// Chrome trace-event JSON once the run ends. Two clock reads bracket a
// whole batch of calls, so the timer cost is spread over thousands of
// packets.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
	busy     map[string]time.Duration // Σ duration by span name
	items    map[string]uint64        // Σ items by span name
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, epoch: time.Now(), busy: map[string]time.Duration{}, items: map[string]uint64{}}
	t.spans = append(t.spans, span{name: workload, parent: -1})
	return t
}

const rootSpan = 0

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// reserve makes room for n more spans, so that opening them allocates
// nothing inside an allocation bracket.
func (t *tracer) reserve(n int) { t.spans = slices.Grow(t.spans, n) }

// end closes the span, crediting its duration and items to the layer.
func (t *tracer) end(id int, items uint64) time.Duration {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	s.items = items
	d := s.end - s.start
	if s.parent != -1 {
		t.busy[s.name] += d
		t.items[s.name] += items
	}
	return d
}

// sample attaches a layer counter to the span's closing boundary.
func (t *tracer) sample(id int, key string, v uint64) {
	s := &t.spans[id]
	if s.counters == nil {
		s.counters = map[string]uint64{}
	}
	s.counters[key] = v
}

// nsPer is the layer's busy time per bracketed item.
func (t *tracer) nsPer(name string) float64 {
	return ratio(float64(t.busy[name]), float64(t.items[name]))
}

// traceEvent is one Chrome trace-event ("X" = complete span).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write emits the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Nesting on the single track follows the parent links.
func (t *tracer) write(path string) error {
	t.spans[rootSpan].end = time.Since(t.epoch)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	for i, s := range t.spans {
		if i > 0 {
			bw.WriteString(",")
		}
		args := map[string]any{"trace_id": t.workload, "span_id": i, "parent_id": s.parent, "items": s.items}
		for k, v := range s.counters {
			args[k] = v
		}
		ev := traceEvent{
			Name: s.name, Cat: t.workload, Ph: "X", PID: 1, TID: 1, Args: args,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
