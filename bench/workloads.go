package main

import (
	"crypto/sha256"
	_ "embed"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/detect"
	"quicsand/internal/oracle"
	"quicsand/internal/scenario"
	"quicsand/internal/tlsmini"
)

// identityPEM pins the certificate the generator's template handshakes
// embed, so a seed fixes every payload byte of the month.
//
//go:embed identity.pem
var identityPEM []byte

// size is one row of the workload size table: everything that decides
// how much work a repetition is. Sizes are constants, not flags — a
// number measured at another size is another benchmark.
type size struct {
	scenario     string
	scale        float64
	skipResearch bool
	// format is the stored capture the workload replays; FormatUnknown
	// means it simulates and has no fixture.
	format capture.Format
	// ckptEvery > 0 marks the streaming workload: Checkpoint+Encode
	// every this many captured packets (≈ 43 ticks a repetition).
	ckptEvery uint64
}

// sizes were cut from the issue's prototype (paper 0.1, flood 0.5,
// tick 50 000) until 92 driver runs, each with three set-ups, fit the
// contract's 3420 s cap with at least 7 repetitions per run, and until
// recording the fixture (inside the checkout, so on disk) stopped
// stalling in dirty-page throttling: a 700 MB capture took up to 13 s
// to write, a 350 MB one never more than 1.5 s. The workload list was
// not cut. The tick interval shrank with the flood so a repetition
// keeps its ≈ 43 ticks.
var sizes = map[string]size{
	simPaper:   {scenario: "paper-2021", scale: 0.05},
	replayQSND: {scenario: "paper-2021", scale: 0.05, format: capture.FormatQSND},
	replayPcap: {scenario: "handshake-flood-qfam", scale: 0.1, skipResearch: true, format: capture.FormatPcap},
	streamQSND: {scenario: "handshake-flood-qfam", scale: 0.1, skipResearch: true, format: capture.FormatQSND, ckptEvery: 10000},
}

var workloadOrder = []string{simPaper, replayQSND, replayPcap, streamQSND}

const (
	// sessionBudget arms the sessionizers as telescoped arms them.
	sessionBudget = 4096
	// smokeThin thins research sweeps in smoke runs so they stay short;
	// real runs use the generator's default thinning.
	smokeThin = 1 << 14
)

// options are the per-invocation knobs. shrink is 1 for real runs; the
// smoke test divides every size by it.
type options struct {
	seed    uint64
	seconds float64 // timed region per run
	minReps int     // repetitions to reach even if seconds is spent
	setups  int     // how many times set-up is repeated for setup_s
	shrink  float64
	outDir  string
}

type digest [sha256.Size]byte

func digestOf(a *quicsand.Analysis) digest { return sha256.Sum256([]byte(a.RenderAll())) }

// workload is one prepared workload: configuration, oracle
// expectations and the recorded fixture.
type workload struct {
	name string
	size size
	cfg  quicsand.Config
	dcfg detect.Config

	exp      *oracle.Expectation
	alertExp *oracle.AlertExpectation

	path     string // recorded capture, "" for simulate
	bytes    int64  // fixture size
	recorded uint64 // records in the fixture
	// ref is the digest every repetition must reproduce: the recording
	// run's for replays (replay ≡ live), the first repetition's for
	// simulate.
	ref digest
}

func newWorkload(name string, o options) (*workload, error) {
	sz, ok := sizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{name: name, size: sz, dcfg: detect.Default()}
	if o.shrink > 1 {
		w.size.scale /= o.shrink
		w.size.ckptEvery = uint64(float64(sz.ckptEvery) / o.shrink)
	}
	return w, nil
}

func (w *workload) streaming() bool { return w.size.ckptEvery > 0 }

// setup builds the workload's inputs from the seed: identity, oracle
// expectations and — for the replay workloads — the recorded capture.
// It is what setup_s times.
func (w *workload) setup(o options) error {
	id, err := tlsmini.ParseIdentityPEM(identityPEM)
	if err != nil {
		return err
	}
	sc, err := scenario.Builtin(w.size.scenario)
	if err != nil {
		return err
	}
	w.cfg = quicsand.Config{
		Seed: o.seed, Scale: w.size.scale, SkipResearch: w.size.skipResearch,
		Identity: id, Scenario: sc,
	}
	if o.shrink > 1 {
		w.cfg.ResearchThin = smokeThin
	}
	if w.exp, err = quicsand.Expect(w.cfg); err != nil {
		return err
	}
	if w.streaming() {
		if w.alertExp, err = quicsand.ExpectAlerts(w.cfg, w.dcfg); err != nil {
			return err
		}
	}
	if w.size.format == capture.FormatUnknown {
		return nil
	}
	return w.record(filepath.Join(o.outDir, "fixture-"+w.name))
}

// record runs the month once with a trace sink and keeps the recording
// run's digest as the reference the replays must reproduce.
func (w *workload) record(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w.path = filepath.Join(dir, "month."+w.size.format.String())
	f, err := os.Create(w.path)
	if err != nil {
		return err
	}
	defer f.Close()
	sink := capture.NewSink(f, w.size.format)
	cfg := w.cfg
	cfg.Trace = sink
	a, err := quicsand.Run(cfg)
	if err != nil {
		return err
	}
	if err := sink.Flush(); err != nil {
		return fmt.Errorf("record %s: %w", w.path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("record %s: %w", w.path, err)
	}
	if sink.Dropped() != 0 || sink.Count() != a.Telescope.Total {
		return fmt.Errorf("record %s: wrote %d of %d captured packets (%d dropped)",
			w.path, sink.Count(), a.Telescope.Total, sink.Dropped())
	}
	st, err := os.Stat(w.path)
	if err != nil {
		return err
	}
	w.bytes, w.recorded = st.Size(), sink.Count()
	w.ref = digestOf(a)
	return nil
}

// cleanup deletes the fixture.
func (w *workload) cleanup() {
	if w.path != "" {
		os.RemoveAll(filepath.Dir(w.path))
		w.path = ""
	}
}

// openCapture opens the fixture the way `quicsand replay` does: QSND
// is memory-mapped, pcap streams through the file.
func (w *workload) openCapture() (capture.Source, func(), error) {
	f, err := os.Open(w.path)
	if err != nil {
		return nil, nil, err
	}
	src, err := capture.OpenFile(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return src, func() {
		if c, ok := src.(io.Closer); ok {
			c.Close()
		}
		f.Close()
	}, nil
}

// outcome is what one end-to-end repetition produced, beyond its cost.
type outcome struct {
	analysis *quicsand.Analysis
	alerts   []detect.Alert // streaming only: every drained alert
	ticks    []time.Duration
	final    *quicsand.StreamCheckpoint
}

// run performs one whole entry-point call with the given worker count
// (0 = GOMAXPROCS). For the streaming workload the timed region ends
// at Close(); verify reduces the final Analysis() afterwards.
func (w *workload) run(workers int) (*outcome, uint64, error) {
	cfg := w.cfg
	cfg.Workers = workers
	if w.size.format == capture.FormatUnknown {
		a, err := quicsand.Run(cfg)
		if err != nil {
			return nil, 0, err
		}
		return &outcome{analysis: a}, a.Telescope.Total, nil
	}
	src, closeSrc, err := w.openCapture()
	if err != nil {
		return nil, 0, err
	}
	defer closeSrc()
	if !w.streaming() {
		a, err := quicsand.Replay(cfg, src)
		if err != nil {
			return nil, 0, err
		}
		return &outcome{analysis: a}, a.Telescope.Total, nil
	}
	return w.stream(cfg, src)
}

// stream drives the daemon's core from the benchmark's own loop:
// Source.Next → Streamer.Offer, Checkpoint()+Encode() every ckptEvery
// captured packets, then Close().
func (w *workload) stream(cfg quicsand.Config, src capture.Source) (*outcome, uint64, error) {
	s, err := quicsand.NewStreamer(quicsand.StreamConfig{Config: cfg, Detect: &w.dcfg, MaxActiveSessions: sessionBudget})
	if err != nil {
		return nil, 0, err
	}
	out := &outcome{}
	var captured uint64
	next := w.size.ckptEvery
	for {
		p, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			s.Close()
			return nil, 0, err
		}
		if !s.Offer(p) {
			continue
		}
		if captured++; captured >= next {
			t0 := time.Now()
			ck := s.Checkpoint()
			img := ck.Encode()
			out.ticks = append(out.ticks, time.Since(t0))
			if len(img) == 0 {
				s.Close()
				return nil, 0, errors.New("empty checkpoint image")
			}
			out.alerts = append(out.alerts, ck.Alerts...)
			next += w.size.ckptEvery
		}
	}
	out.final = s.Close()
	out.alerts = append(out.alerts, out.final.Alerts...)
	return out, captured, nil
}

// verify is the correctness gate of one repetition: zero oracle
// violations, no decode drop, every recorded packet captured, the
// session budget never reached, and the rendered analysis bit-equal to
// the reference digest.
func (w *workload) verify(out *outcome) error {
	a := out.analysis
	if a == nil {
		a = out.final.Analysis()
		out.analysis = a
	}
	if v := oracle.Check(w.exp, a.OracleObserved()); len(v) != 0 {
		return fmt.Errorf("%d oracle violations, first: %s want %s got %s", len(v), v[0].Name, v[0].Want, v[0].Got)
	}
	if w.alertExp != nil {
		if n := oracle.CountViolations(oracle.CheckAlerts(w.alertExp, out.alerts)); n != 0 {
			return fmt.Errorf("%d alert-oracle violations over %d alerts", n, len(out.alerts))
		}
	}
	if n := a.Telemetry.Sessions.BudgetEvicted; n != 0 {
		return fmt.Errorf("session budget evicted %d sessions (breaks stream ≡ batch)", n)
	}
	if w.path != "" {
		if n := a.Telemetry.Ingest.DecodeDrops; n != 0 {
			return fmt.Errorf("%d unexpected decode drops", n)
		}
		if a.Telescope.Total != w.recorded {
			return fmt.Errorf("captured %d of %d recorded packets", a.Telescope.Total, w.recorded)
		}
	}
	d := digestOf(a)
	if w.ref == (digest{}) {
		w.ref = d
	}
	if d != w.ref {
		return fmt.Errorf("RenderAll digest %x differs from reference %x", d[:6], w.ref[:6])
	}
	return nil
}

// batchReference replays the streaming workload's capture in batch
// mode and checks it against the recording run: the stream ≡ batch
// reference is then the same digest as replay ≡ live.
func (w *workload) batchReference() (pktsPerSec float64, err error) {
	src, closeSrc, err := w.openCapture()
	if err != nil {
		return 0, err
	}
	defer closeSrc()
	t0 := time.Now()
	a, err := quicsand.Replay(w.cfg, src)
	if err != nil {
		return 0, err
	}
	wall := time.Since(t0)
	if d := digestOf(a); d != w.ref {
		return 0, fmt.Errorf("batch replay digest %x differs from the recording run's %x", d[:6], w.ref[:6])
	}
	return float64(a.Telescope.Total) / wall.Seconds(), nil
}
