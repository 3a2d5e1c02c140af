// Command quicsand runs the full measurement pipeline — simulated
// telescope month, dissection, sessionization, DoS detection and
// correlation — and prints the paper's figures. Subcommands move the
// same analysis on and off disk:
//
//	quicsand [flags]                 simulate the month and print figures
//	quicsand record  -o FILE [flags] simulate and checkpoint the capture
//	quicsand replay  -i FILE [flags] re-analyze a stored capture
//	quicsand convert -i IN -o OUT    transcode between QSND and pcap
//	quicsand compare -scenario A [-scenario B] [-json]
//	                                 validate runs against the analytic
//	                                 oracle and diff two scenarios
//
// The capture-reading subcommands (replay, convert, compare -i) accept
// [-salvage] [-salvage-retries N] [-salvage-backoff D]: by default a
// corrupt record aborts the run with its terminal error; -salvage
// resyncs past damaged spans and counts the loss instead (reported via
// -stats, the manifest and the oracle's degraded bounds — DESIGN.md
// §14), and -salvage-retries N retries a transient read error up to N
// times with exponential backoff — one budget, spent in the capture
// reader's window, the same on every command.
//
// Shared simulation flags:
//
//	[-seed N] [-scale F] [-thin N] [-skip-research] [-workers N]
//	[-scenario NAME|FILE] [-fig SECTION] [-stats] [-manifest FILE]
//	[-trace-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// -trace-out records the run on the flight recorder (DESIGN.md §15)
// and exports the merged stage/shard timeline as Chrome trace-event
// JSON, loadable in Perfetto (ui.perfetto.dev); -stats additionally
// summarizes it as a per-stage time-sliced busy table, and -manifest
// references the trace file. `replay -heartbeat DUR` logs the same
// structured progress line telescoped emits, for long stored-month
// replays. `replay -alerts FILE|-` attaches the sliding-window detectors
// (DESIGN.md §17) to the same batch replay and writes the alert episodes
// as JSON lines — the analysis output is bit-identical to the replay
// without them; `-window DUR` and `-detect-config FILE` tune the
// detector bank.
//
// -scenario selects the workload: a built-in scenario name
// (`-scenario list` prints the registry), or a declarative JSON spec
// file (internal/scenario, examples/scenarios). The default
// is the paper's hard-coded April 2021 month. Replay takes the
// recorded run's -scenario like it takes -seed and -scale.
//
// SECTION is one of: all, headline, headline-json, stats, 2–13,
// section6. -stats prints the run's pipeline throughput, shard balance
// and telemetry counters to stderr; -manifest writes a machine-readable
// run record (config, stage timings, telemetry snapshot) to FILE. At
// -scale 1.0 the run reproduces paper-scale magnitudes and takes a few
// minutes; the default 0.1 finishes in seconds with identical shapes.
// -workers fans the analysis over N shards (0 = all CPUs); results are
// bit-identical for every worker count, and a replayed checkpoint
// reproduces the recorded run's analysis bit-identically too. Capture
// files ending in .pcap/.cap are classic libpcap (readable by
// tcpdump/Wireshark); anything else is the native QSND store. Inputs
// are sniffed by magic, so extensions only matter for outputs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/clobber"
	"quicsand/internal/detect"
	"quicsand/internal/engine"
	"quicsand/internal/scenario"
	"quicsand/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "quicsand:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return runRecord(args[1:], stdout, stderr)
		case "replay":
			return runReplay(args[1:], stdout, stderr)
		case "convert":
			return runConvert(args[1:], stderr)
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		}
	}
	return runSimulate(args, stdout, stderr)
}

// simOpts are the simulation parameters every analyzing subcommand
// shares; replay needs them too, to rebuild the schedule-derived
// ground truth of the recorded run.
type simOpts struct {
	seed         *uint64
	scale        *float64
	thin         *uint
	skipResearch *bool
	workers      *int
	stats        *bool
	manifest     *string
	cpuProfile   *string
	memProfile   *string
	scenarioSel  *string
	traceOut     *string
}

func addSimFlags(fs *flag.FlagSet) *simOpts {
	o := addBaseSimFlags(fs)
	o.scenarioSel = fs.String("scenario", "", "workload: built-in scenario name, JSON spec file, or 'list'")
	// Registered here rather than in the base set: a flight recorder
	// records exactly one run, and compare (which reuses the base set)
	// runs two analyses per invocation.
	o.traceOut = fs.String("trace-out", "", "write the run's flight-recorder timeline as Chrome trace-event JSON (Perfetto-loadable) to this file")
	return o
}

// outputs lists the files the shared flags write, for clobber.Check.
func (o *simOpts) outputs() []clobber.Flag {
	out := []clobber.Flag{
		{Name: "-manifest", Path: *o.manifest},
		{Name: "-cpuprofile", Path: *o.cpuProfile},
		{Name: "-memprofile", Path: *o.memProfile},
	}
	if o.traceOut != nil {
		out = append(out, clobber.Flag{Name: "-trace-out", Path: *o.traceOut})
	}
	return out
}

// attachRecorder arms the flight recorder when -trace-out or -stats
// asks for the timeline. Call once per pipeline run — a recorder
// records exactly one run.
func (o *simOpts) attachRecorder(cfg *quicsand.Config) {
	if (o.traceOut != nil && *o.traceOut != "") || *o.stats {
		cfg.FlightRecorder = telemetry.NewRecorder(telemetry.RecorderConfig{})
	}
}

// addBaseSimFlags registers every shared simulation flag except
// -scenario — compare replaces the single-valued selector with a
// repeatable one and reuses the rest.
func addBaseSimFlags(fs *flag.FlagSet) *simOpts {
	return &simOpts{
		seed:         fs.Uint64("seed", 2021, "simulation seed (runs are bit-reproducible)"),
		scale:        fs.Float64("scale", 0.1, "event-count scale; 1.0 = paper magnitudes"),
		thin:         fs.Uint("thin", 64, "research-scan thinning weight"),
		skipResearch: fs.Bool("skip-research", false, "omit research scanners (Figure 2 loses its main series)"),
		workers:      fs.Int("workers", 0, "pipeline shards; 0 = all CPUs, 1 = sequential"),
		stats:        fs.Bool("stats", false, "print pipeline throughput, shard balance and telemetry to stderr"),
		manifest:     fs.String("manifest", "", "write a machine-readable run manifest (config, timings, telemetry) to this file"),
		cpuProfile:   fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		memProfile:   fs.String("memprofile", "", "write a post-run heap profile to this file"),
	}
}

// config resolves the flag set into a pipeline Config. The -scenario
// value may name a built-in or a spec file; replay must pass the same
// value as the recorded run (like -seed and -scale).
func (o *simOpts) config() (quicsand.Config, error) {
	if *o.workers < 0 {
		return quicsand.Config{}, fmt.Errorf("-workers must not be negative (got %d)", *o.workers)
	}
	cfg := quicsand.Config{
		Seed:         *o.seed,
		Scale:        *o.scale,
		ResearchThin: uint32(*o.thin),
		SkipResearch: *o.skipResearch,
		Workers:      *o.workers,
	}
	if o.scenarioSel == nil {
		return cfg, nil // compare resolves its own selectors
	}
	sel := *o.scenarioSel
	if sel == "" {
		return cfg, nil
	}
	if sel == "list" {
		// The list verb never reaches config resolution: parseSim
		// services it. Failing here keeps a future subcommand that
		// skips parseSim from silently running a full simulation.
		return cfg, errors.New("-scenario list: nothing to run")
	}
	sc, err := resolveScenario(sel)
	if err != nil {
		return cfg, err
	}
	cfg.Scenario = sc
	return cfg, nil
}

// resolveScenario turns a -scenario value — a built-in name or a
// JSON spec path — into a loaded scenario. Shared by every
// subcommand that selects workloads (simulate/record/replay/compare).
func resolveScenario(sel string) (*scenario.Scenario, error) {
	if sc, err := scenario.Builtin(sel); err == nil {
		if info, statErr := os.Stat(sel); statErr == nil && !info.IsDir() {
			// A local file shadowed by a built-in name must not be
			// silently ignored; make the user disambiguate. (A mere
			// directory of the same name is no spec candidate.)
			return nil, fmt.Errorf("-scenario %q names both a built-in and a local file; use ./%s for the file", sel, sel)
		}
		return sc, nil
	}
	// Not a built-in: treat the value as a spec path. Keep the
	// stat error so ENOENT and EACCES stay distinguishable.
	info, statErr := os.Stat(sel)
	if statErr != nil {
		return nil, fmt.Errorf("-scenario %q: not a built-in (%s) and %w",
			sel, strings.Join(scenario.Builtins(), ", "), statErr)
	}
	if info.IsDir() {
		return nil, fmt.Errorf("-scenario %q: is a directory, not a spec file", sel)
	}
	return scenario.LoadFile(sel)
}

// listScenarios prints the built-in registry (the -scenario list verb).
func listScenarios(stdout io.Writer) {
	fmt.Fprintln(stdout, "built-in scenarios:")
	for _, line := range scenario.Describe() {
		fmt.Fprintln(stdout, " ", line)
	}
	fmt.Fprintln(stdout, "\ncustom specs: pass a JSON spec file (see examples/scenarios)")
}

func parse(fs *flag.FlagSet, args []string) (help bool, err error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return true, nil // usage already printed; -h is not a failure
		}
		return false, err
	}
	return false, nil
}

// salvageOpts are the degraded-input flags every capture-reading
// subcommand shares (replay, convert, compare -i). The default — all
// zero — preserves the historical fail-fast contract: the first
// corrupt record aborts with its terminal error.
type salvageOpts struct {
	skip    *bool
	retries *int
	backoff *time.Duration
}

func addSalvageFlags(fs *flag.FlagSet) *salvageOpts {
	return &salvageOpts{
		skip:    fs.Bool("salvage", false, "skip corrupt records: resync to the next plausible boundary and count the damage instead of aborting"),
		retries: fs.Int("salvage-retries", 0, "retry a transient read error up to N times in a row with exponential backoff, then fail (the same budget on replay, replay -alerts, convert and compare)"),
		backoff: fs.Duration("salvage-backoff", 0, "base backoff before the first transient retry (doubles per attempt; 0 = 1ms)"),
	}
}

// policy resolves the flags into the capture-layer salvage policy. A
// negative retry budget or backoff is an error: the policy would read it
// as no retries or as the 1 ms default.
func (o *salvageOpts) policy() (capture.SalvagePolicy, error) {
	if *o.retries < 0 {
		return capture.SalvagePolicy{}, fmt.Errorf("-salvage-retries must not be negative (got %d)", *o.retries)
	}
	if *o.backoff < 0 {
		return capture.SalvagePolicy{}, fmt.Errorf("-salvage-backoff must not be negative (got %v)", *o.backoff)
	}
	return capture.SalvagePolicy{
		SkipCorrupt: *o.skip,
		MaxRetries:  *o.retries,
		Backoff:     *o.backoff,
	}, nil
}

// parseSim parses a simulate-style flag set and services the
// `-scenario list` verb in one place for every subcommand; done means
// output (usage or the registry) was already produced and the command
// is finished.
func parseSim(fs *flag.FlagSet, opts *simOpts, args []string, stdout io.Writer) (done bool, err error) {
	if help, err := parse(fs, args); help || err != nil {
		return true, err
	}
	if *opts.scenarioSel == "list" {
		listScenarios(stdout)
		return true, nil
	}
	return false, nil
}

// profiled brackets fn with the optional CPU profile and snapshots the
// heap afterwards, so perf work measures instead of guessing.
func (o *simOpts) profiled(fn func() error) error {
	if *o.cpuProfile != "" {
		f, err := os.Create(*o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if *o.cpuProfile != "" {
		pprof.StopCPUProfile() // stop before rendering so figures stay out of the profile
	}
	if *o.memProfile != "" {
		f, err := os.Create(*o.memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // settle so the profile shows retained, not transient, heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("mem profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// renderFigure prints the selected section. An empty section renders
// nothing (record's default).
func renderFigure(a *quicsand.Analysis, fig string, stdout io.Writer) error {
	if fig == "" {
		return nil
	}
	var out string
	switch fig {
	case "all":
		out = a.RenderAll()
	case "headline":
		out = a.Headline()
	case "headline-json":
		out = a.HeadlineJSON()
	case "2":
		out = a.Figure2()
	case "3":
		out = a.Figure3()
	case "4":
		out = a.Figure4()
	case "5":
		out = a.Figure5()
	case "6":
		out = a.Figure6()
	case "7":
		out = a.Figure7()
	case "8":
		out = a.Figure8()
	case "9":
		out = a.Figure9()
	case "10":
		out = a.Figure10()
	case "11":
		out = a.Figure11()
	case "12":
		out = a.Figure12()
	case "13":
		out = a.Figure13()
	case "section6":
		out = a.Section6()
	case "stats":
		out = a.StatsReport()
	default:
		return fmt.Errorf("unknown -fig %q", fig)
	}
	fmt.Fprintln(stdout, out)
	return nil
}

// sinkFormat resolves an export format flag against the output path.
func sinkFormat(flagVal, path string) (capture.Format, error) {
	switch flagVal {
	case "", "auto":
		return capture.FormatForPath(path), nil
	case "qsnd":
		return capture.FormatQSND, nil
	case "pcap":
		return capture.FormatPcap, nil
	}
	return capture.FormatUnknown, fmt.Errorf("unknown format %q (want auto, qsnd or pcap)", flagVal)
}

// traceSink opens an export sink on path. The returned finish func
// flushes, surfaces the sink's sticky write error (a full disk during
// fire-and-forget capture would otherwise vanish), closes the file,
// and reports the record count. abort closes and unlinks the output
// instead — call it when the producing run fails, so no partial,
// mid-record-truncated capture survives to be mistaken for a real one.
func traceSink(path string, format capture.Format, stderr io.Writer) (sink capture.Sink, finish func() error, abort func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, nil, err
	}
	sink = capture.NewSink(f, format)
	finish = func() error {
		if err := sink.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("trace %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace %s: %w", path, err)
		}
		fmt.Fprintf(stderr, "trace: %d records written to %s (%s)\n", sink.Count(), path, format)
		return nil
	}
	abort = func() {
		f.Close()
		os.Remove(path)
	}
	return sink, finish, abort, nil
}

// simulateAndRender is the shared tail of the simulate-style commands:
// run the pipeline (profiled), settle the optional trace sink, print
// stats and the selected figure. On a failed run the trace is aborted,
// never finished.
func simulateAndRender(opts *simOpts, cfg quicsand.Config, command string, finish func() error, abort func(), fig string, stdout, stderr io.Writer) error {
	opts.attachRecorder(&cfg)
	var a *quicsand.Analysis
	err := opts.profiled(func() (err error) {
		a, err = quicsand.Run(cfg)
		return err
	})
	if err != nil {
		if abort != nil {
			abort()
		}
		return err
	}
	if finish != nil {
		if err := finish(); err != nil {
			return err
		}
	}
	if err := opts.report(a, "quicsand "+command, stderr); err != nil {
		return err
	}
	return renderFigure(a, fig, stdout)
}

// report handles the shared observability outputs: -stats prints the
// full stats report to stderr, -trace-out exports the flight-recorder
// timeline, -manifest writes the run manifest (referencing the trace).
func (o *simOpts) report(a *quicsand.Analysis, command string, stderr io.Writer) error {
	if *o.stats {
		fmt.Fprint(stderr, a.StatsReport())
	}
	if o.traceOut != nil && *o.traceOut != "" {
		// A nil timeline means the recorder was never armed — a wiring
		// bug, not a user error, so it surfaces loudly.
		if a.Flight == nil {
			return errors.New("trace-out: run recorded no flight timeline")
		}
		if err := a.Flight.WriteFile(*o.traceOut); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace-out: %d spans across %d events written to %s\n",
			a.Flight.SpanCount(), len(a.Flight.Events), *o.traceOut)
	}
	if *o.manifest != "" {
		m := a.Manifest(command)
		if o.traceOut != nil {
			m.TraceFile = *o.traceOut
		}
		if err := m.WriteFile(*o.manifest); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
	}
	return nil
}

// runSimulate is the classic flag-only invocation: generate and print.
func runSimulate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("quicsand", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := addSimFlags(fs)
	fig := fs.String("fig", "all", "section to print: all, headline, headline-json, 2..13, section6")
	if done, err := parseSim(fs, opts, args, stdout); done || err != nil {
		return err
	}
	if err := clobber.Check(nil, opts.outputs()); err != nil {
		return err
	}

	cfg, err := opts.config()
	if err != nil {
		return err
	}
	return simulateAndRender(opts, cfg, "simulate", nil, nil, *fig, stdout, stderr)
}

// runRecord simulates the month and checkpoints the capture; with -fig
// it also prints the analysis, so one run yields both artifacts (the
// round-trip CI check diffs exactly that output against a replay).
func runRecord(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("quicsand record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := addSimFlags(fs)
	out := fs.String("o", "", "capture file to write (required)")
	format := fs.String("format", "auto", "capture format: auto (by extension), qsnd, pcap")
	fig := fs.String("fig", "", "also print this section (same values as the top-level -fig)")
	if done, err := parseSim(fs, opts, args, stdout); done || err != nil {
		return err
	}
	if *out == "" {
		return errors.New("record: -o FILE is required")
	}
	if err := clobber.Check(nil, append([]clobber.Flag{{Name: "-o", Path: *out}}, opts.outputs()...)); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	f, err := sinkFormat(*format, *out)
	if err != nil {
		return err
	}
	cfg, err := opts.config()
	if err != nil {
		return err
	}
	sink, finish, abort, err := traceSink(*out, f, stderr)
	if err != nil {
		return err
	}
	cfg.Trace = sink
	return simulateAndRender(opts, cfg, "record", finish, abort, *fig, stdout, stderr)
}

// runReplay re-analyzes a stored capture (QSND or pcap, sniffed by
// magic) through the sharded engine. The simulation flags must match
// the recorded run for the ground-truth joins to line up; for foreign
// captures they only seed an empty simulation context.
func runReplay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("quicsand replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := addSimFlags(fs)
	sal := addSalvageFlags(fs)
	in := fs.String("i", "", "capture file to replay (required)")
	fig := fs.String("fig", "headline", "section to print: all, headline, headline-json, 2..13, section6")
	heartbeat := fs.Duration("heartbeat", 0, "progress-log interval on stderr (0 disables)")
	alerts := fs.String("alerts", "", "attach the sliding-window detectors and write their alerts as JSON lines to FILE (- = stdout)")
	window := fs.Duration("window", 0, "detector sliding window for -alerts (0 = detector default)")
	detectConfig := fs.String("detect-config", "", "detector-threshold JSON for -alerts")
	if done, err := parseSim(fs, opts, args, stdout); done || err != nil {
		return err
	}
	if *in == "" {
		return errors.New("replay: -i FILE is required")
	}
	if *alerts == "" && (*window != 0 || *detectConfig != "") {
		return errors.New("replay: -window and -detect-config require -alerts")
	}
	// Negative values would silently pick a default: the detector's
	// window, no progress log.
	if *window < 0 {
		return fmt.Errorf("replay: -window must not be negative (got %v)", *window)
	}
	if *heartbeat < 0 {
		return fmt.Errorf("replay: -heartbeat must not be negative (got %v)", *heartbeat)
	}
	inputs := []clobber.Flag{{Name: "-i", Path: *in}, {Name: "-detect-config", Path: *detectConfig}}
	if err := clobber.Check(inputs, append([]clobber.Flag{{Name: "-alerts", Path: *alerts}}, opts.outputs()...)); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	cfg, err := opts.config()
	if err != nil {
		return err
	}
	if cfg.Salvage, err = sal.policy(); err != nil {
		return err
	}
	opts.attachRecorder(&cfg)
	var hb *telemetry.Heartbeat
	if *heartbeat > 0 {
		// Same structured progress line telescoped logs: long replays of
		// month-scale captures get liveness on stderr.
		live := telemetry.NewLive(engine.Config{Workers: cfg.Workers}.ResolveWorkers())
		cfg.Live = live
		hb = telemetry.StartHeartbeat(live, nil, *heartbeat, func(format string, args ...any) {
			fmt.Fprintf(stderr, "quicsand: replay: "+format+"\n", args...)
		})
		defer hb.Stop()
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	// OpenFile memory-maps a regular capture file of either format
	// (zero-copy ingest) and streams anything else, such as a pipe on
	// /dev/stdin; the source owns the mapping until the analysis below
	// is fully rendered.
	src, err := capture.OpenFile(f)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	defer closeSource(src)

	var a *quicsand.Analysis
	err = opts.profiled(func() (err error) {
		if *alerts == "" {
			a, err = quicsand.Replay(cfg, src)
			return err
		}
		a, err = replayAlerts(cfg, src, *alerts, *window, *detectConfig, stdout, stderr)
		return err
	})
	// Progress ends with the pipeline; stopping here (Stop waits for the
	// ticker goroutine) leaves the report writes below as the only
	// stderr writer.
	hb.Stop()
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	// The drop total comes from the analysis, not the source: with
	// decode-after-scatter part of the pcap drops are counted on the
	// shards, and only the merged telemetry has the whole number.
	reportSkipped(src, a.Telemetry.Ingest.DecodeDrops, *in, stderr)
	if err := opts.report(a, "quicsand replay", stderr); err != nil {
		return err
	}
	return renderFigure(a, *fig, stdout)
}

// replayAlerts is the `-alerts` replay path: the same batch replay with
// a sliding-window detector bank on every shard (DESIGN.md §17). Alert
// episodes land as JSON lines on FILE (or stdout for "-"); the Analysis
// is the plain replay's plus the detectors' telemetry.
func replayAlerts(cfg quicsand.Config, src capture.Source, path string, window time.Duration, detectPath string, stdout, stderr io.Writer) (*quicsand.Analysis, error) {
	dcfg := detect.Default()
	if detectPath != "" {
		c, err := detect.LoadConfigFile(detectPath)
		if err != nil {
			return nil, err
		}
		dcfg = c
	}
	if window > 0 {
		dcfg.Window = window
	}
	a, alerts, err := quicsand.ReplayAlerts(quicsand.StreamConfig{Config: cfg, Detect: &dcfg}, src)
	if err != nil {
		return nil, err
	}
	w := stdout
	var f *os.File
	if path != "-" {
		if f, err = os.Create(path); err != nil {
			return nil, err
		}
		w = f
	}
	if err := detect.WriteAlerts(w, alerts); err != nil {
		if f != nil {
			f.Close()
		}
		return nil, fmt.Errorf("alerts %s: %w", path, err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("alerts %s: %w", path, err)
		}
	}
	fmt.Fprintf(stderr, "quicsand: replay: %d alerts (window=%s)\n", len(alerts), dcfg.Window)
	return a, nil
}

// closeSource releases source-owned resources (the capture's mapping)
// once the analysis no longer aliases them.
func closeSource(src capture.Source) {
	if c, ok := src.(io.Closer); ok {
		_ = c.Close()
	}
}

// reportSkipped warns when decapsulation dropped frames the telescope
// packet model cannot represent (non-IPv4, fragments, other
// transports), and when salvage mode skipped damaged spans — otherwise
// a degraded capture would silently analyze a fraction of its records.
func reportSkipped(src capture.Source, skipped uint64, path string, stderr io.Writer) {
	if skipped > 0 {
		fmt.Fprintf(stderr, "warning: %s: skipped %d unrepresentable frames (non-IPv4, fragments, or unsupported transports)\n",
			path, skipped)
	}
	if sv := capture.SourceSalvage(src); sv != (capture.SalvageStats{}) {
		fmt.Fprintf(stderr, "warning: %s: salvage skipped %d corrupt records over %d resyncs (%d bytes, <= %d records lost, %d transient retries)\n",
			path, sv.CorruptRecords, sv.ResyncScans, sv.SalvagedBytes, sv.MaxLostRecords, sv.TransientRetries)
	}
}

// runConvert transcodes a capture between QSND and pcap without
// analyzing it.
func runConvert(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("quicsand convert", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "", "input capture (required; format sniffed by magic)")
	out := fs.String("o", "", "output capture (required)")
	format := fs.String("format", "auto", "output format: auto (by extension), qsnd, pcap")
	sal := addSalvageFlags(fs)
	if help, err := parse(fs, args); help || err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("convert: -i FILE and -o FILE are required")
	}
	if err := clobber.Check([]clobber.Flag{{Name: "-i", Path: *in}}, []clobber.Flag{{Name: "-o", Path: *out}}); err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	of, err := sinkFormat(*format, *out)
	if err != nil {
		return err
	}
	pol, err := sal.policy()
	if err != nil {
		return err
	}
	src0, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer src0.Close()
	src, err := capture.NewSource(src0)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	if pol.Enabled() {
		capture.SetSalvage(src, pol)
	}
	sink, finish, abort, err := traceSink(*out, of, stderr)
	if err != nil {
		return err
	}
	if _, err := capture.Copy(sink, src); err != nil {
		abort() // never leave a partial capture behind
		return fmt.Errorf("convert %s → %s: %w", *in, *out, err)
	}
	reportSkipped(src, capture.SourceSkipped(src), *in, stderr)
	return finish()
}
