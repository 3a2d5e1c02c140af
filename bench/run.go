package main

import (
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"time"
)

// stat is one reported metric: the median over its samples with the
// quartiles and sample count next to it (single measurements carry
// n = 1 and q1 = q3 = value).
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func statOf(unit string, samples []float64) stat {
	q1, med, q3 := quartiles(samples)
	return stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
}

// runResult is one invocation's result: one workload, end-to-end or
// traced.
type runResult struct {
	Workload  string          `json:"workload"`
	Traced    bool            `json:"traced"`
	Seed      uint64          `json:"seed"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
	Failures  []string        `json:"failures,omitempty"`
	Digest    string          `json:"render_sha256"` // of Analysis.RenderAll(), equal on every repetition
	Fixture   string          `json:"fixture,omitempty"`
	FixtureMB float64         `json:"fixture_mb,omitempty"`
	WallS     float64         `json:"wall_s"`
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// runEndToEnd measures one workload untraced: set-up repeated
// o.setups times for setup_s, one verified warm-up repetition, then
// timed repetitions for o.seconds (at least o.minReps). Every
// repetition passes the correctness gate or counts as failed; failed
// repetitions contribute no samples.
func runEndToEnd(name string, o options) (*runResult, error) {
	start := time.Now()
	w, err := newWorkload(name, o)
	if err != nil {
		return nil, err
	}
	defer w.cleanup()
	res := &runResult{Workload: name, Seed: o.seed, Metrics: map[string]stat{}}

	var setups []float64
	for i := 0; i < o.setups; i++ {
		w.cleanup()
		t0 := time.Now()
		if err := w.setup(o); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Fixture, res.FixtureMB = w.path, float64(w.bytes)/1e6

	// Warm-up: fills the page cache and lazy tables, and for the
	// streaming workload pins stream ≡ batch to the batch replay.
	if w.streaming() {
		if _, err := w.batchReference(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	if out, _, err := w.run(0); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	} else if err := w.verify(out); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}

	samples := map[string][]float64{"setup_s": setups}
	add := func(name string, v float64) { samples[name] = append(samples[name], v) }
	var ticks []float64
	loop := time.Now()
	for res.Attempted < o.minReps || time.Since(loop).Seconds() < o.seconds {
		res.Attempted++
		s, out, err := w.measured(0)
		if err != nil {
			res.fail("repetition %d: %v", res.Attempted, err)
			continue
		}
		n := float64(s.pkts)
		add("pkts_per_s", n/s.wall.Seconds())
		add("cpu_ns_per_pkt", float64(s.cpu)/n)
		add("allocs_per_kpkt", float64(s.mallocs)/n*1000)
		add("heap_retained_mb", s.retained/1e6)
		for _, t := range out.ticks {
			ticks = append(ticks, ms(t))
		}
	}
	res.Correct = res.Failed == 0
	res.Digest = hex.EncodeToString(w.ref[:])
	for _, d := range endToEnd {
		res.Metrics[d.name] = statOf(d.unit, samples[d.name])
	}
	if len(ticks) > 0 {
		// Reported beside the end-to-end metrics for the reader; the
		// bounded form of these two lives in the per-layer list (see
		// README, "Demotions").
		res.Metrics["ckpt.tick_ms_p50"] = stat{Value: median(ticks), Unit: "ms", N: len(ticks)}
		res.Metrics["ckpt.tick_ms_p95"] = stat{Value: percentile(ticks, 95), Unit: "ms", N: len(ticks)}
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// print writes one `workload metric value unit` line per metric that
// applies to the workload, in table order.
func (r *runResult) print(out io.Writer) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		s, ok := r.Metrics[d.name]
		if !ok || !d.appliesTo(r.Workload) {
			continue
		}
		fmt.Fprintf(out, "%s %s %.6g %s", r.Workload, d.name, s.Value, s.Unit)
		if s.N > 1 {
			fmt.Fprintf(out, " q1=%.6g q3=%.6g n=%d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(out)
	}
	if !r.Traced {
		for _, name := range []string{"ckpt.tick_ms_p50", "ckpt.tick_ms_p95"} {
			if s, ok := r.Metrics[name]; ok {
				fmt.Fprintf(out, "# %s %s %.6g %s n=%d (bounded form: per-layer)\n", r.Workload, name, s.Value, s.Unit, s.N)
			}
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(out, "# %s FAILED %s\n", r.Workload, f)
	}
	fmt.Fprintf(out, "# %s traced=%v attempted=%d failed=%d wall=%.1fs\n", r.Workload, r.Traced, r.Attempted, r.Failed, r.WallS)
}

// driverLine is the contract's last stdout line: exactly the keys
// correct, attempted, failed and metrics, the metrics being every
// end-to-end name (untraced) or every per-layer name (traced).
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) driverLine() driverLine {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		v := r.Metrics[d.name].Value // zero when the layer is not on this workload's path
		if math.IsNaN(v) || math.IsInf(v, 0) {
			line.Correct = false
			v = 0
		}
		line.Metrics[d.name] = driverValue{Value: v, Unit: d.unit}
	}
	return line
}
