package telemetry

// Chrome trace-event export and the time-sliced stage table: the two
// consumers of a merged Timeline. The JSON follows the Chrome Trace
// Event Format ("JSON object format" with a traceEvents array), which
// Perfetto's legacy importer loads directly: one thread track per
// ring × stage, counter tracks for queue depth and ingest progress.
// Event order and everything except timestamp/duration values are
// deterministic for a structurally identical run, so diffing two trace
// files after zeroing ts/dur is a valid regression check.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
)

// trackID maps a (ring, stage) pair onto a stable Chrome thread id.
// Each ring owns numStages span tracks plus one counter lane (stage ==
// numStages), so the per-ring stride is numStages+1; tid 0 stays
// reserved for process-level metadata.
func trackID(ring int, stage Stage) int {
	return 1 + ring*(int(numStages)+1) + int(stage)
}

// WriteChromeTrace writes the timeline as Chrome trace-event JSON.
// Timestamps are microseconds since the recorder epoch (the format's
// native unit). Only tracks that carry events are declared, keeping
// Perfetto's track list to what actually ran.
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, "  {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"quicsand pipeline (%d workers)\"}}", t.Workers)

	// Declare each (ring, stage) span track and each counter track on
	// first use, in canonical event order.
	declared := make(map[int]bool)
	for i := range t.Events {
		e := &t.Events[i]
		var tid int
		var name string
		if e.IsSpan() {
			tid = trackID(e.Ring, e.Stage)
			name = e.Label + " · " + e.Stage.String()
		} else {
			tid = trackID(e.Ring, numStages) // counter lane per ring
			name = e.Label + " · counters"
		}
		if !declared[tid] {
			declared[tid] = true
			fmt.Fprintf(bw, ",\n  {\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%q}}", tid, name)
			fmt.Fprintf(bw, ",\n  {\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":%d}}", tid, tid)
		}
	}

	for i := range t.Events {
		e := &t.Events[i]
		if e.IsSpan() {
			fmt.Fprintf(bw, ",\n  {\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"cat\":\"stage\",\"name\":%q,\"args\":{\"items\":%d}}",
				trackID(e.Ring, e.Stage), float64(e.TS)/1e3, float64(e.Dur)/1e3, e.Stage.String(), e.Items)
		} else {
			// Counter tracks are pid-scoped and keyed by name; fold the
			// ring label into the name so shards chart separately.
			fmt.Fprintf(bw, ",\n  {\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,\"name\":%q,\"args\":{\"value\":%d}}",
				float64(e.TS)/1e3, e.Counter.String()+" · "+e.Label, e.Items)
		}
	}
	fmt.Fprintf(bw, "\n]}\n")
	return bw.Flush()
}

// WriteFile writes the timeline as Chrome trace-event JSON to path —
// what `-trace-out FILE` does in both CLIs, whose flag the errors name.
func (t *Timeline) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	err = t.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace-out %s: %w", path, err)
	}
	return nil
}

// StageTable renders the per-stage time-sliced busy table `-stats`
// prints: the run's wall time divided into cols equal intervals, one
// row per stage that recorded spans, each cell the percentage of that
// interval the stage's tracks were busy (summed across rings, so
// parallel stages can exceed 100). A trailing column totals each
// stage's items. Zero wall (or an empty timeline) renders a one-line
// note instead of dividing by zero.
func (t *Timeline) StageTable(cols int) string {
	if cols < 1 {
		cols = 10
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d events", len(t.Events))
	if t.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped on full rings)", t.Dropped)
	}
	b.WriteByte('\n')
	if t.WallNS <= 0 || len(t.Events) == 0 {
		b.WriteString("  no time-sliced view (zero wall clock or no recorded spans)\n")
		return b.String()
	}

	type row struct {
		busy  []int64 // busy ns per interval
		items uint64
		spans uint64
	}
	rows := make(map[Stage]*row)
	slice := t.WallNS / int64(cols)
	if slice <= 0 {
		slice = 1
	}
	for i := range t.Events {
		e := &t.Events[i]
		if !e.IsSpan() {
			continue
		}
		r := rows[e.Stage]
		if r == nil {
			r = &row{busy: make([]int64, cols)}
			rows[e.Stage] = r
		}
		r.items += e.Items
		r.spans++
		// Distribute the span's duration over the intervals it overlaps.
		start, end := e.TS, e.TS+e.Dur
		if end > t.WallNS {
			end = t.WallNS
		}
		for k := start / slice; k < int64(cols) && k*slice < end; k++ {
			lo, hi := k*slice, (k+1)*slice
			if start > lo {
				lo = start
			}
			if end < hi {
				hi = end
			}
			if hi > lo {
				r.busy[k] += hi - lo
			}
		}
	}

	fmt.Fprintf(&b, "  stage-busy %% per %s interval (%d intervals):\n", durText(slice), cols)
	fmt.Fprintf(&b, "  %-9s", "stage")
	for k := 0; k < cols; k++ {
		fmt.Fprintf(&b, " %4d", k)
	}
	fmt.Fprintf(&b, "  %12s %6s\n", "items", "spans")
	for st := Stage(0); st < numStages; st++ {
		r := rows[st]
		if r == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-9s", st.String())
		for k := 0; k < cols; k++ {
			fmt.Fprintf(&b, " %4.0f", float64(r.busy[k])/float64(slice)*100)
		}
		fmt.Fprintf(&b, "  %12d %6d\n", r.items, r.spans)
	}
	return b.String()
}

// durText renders a nanosecond count compactly for table headers.
func durText(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.1fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
