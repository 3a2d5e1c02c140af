package main

// The compare subcommand: differential validation from the real CLI.
//
//	quicsand compare -scenario A [-scenario B] [-json] [sim flags]
//	quicsand compare -scenario A -i FILE [-salvage] [sim flags]
//
// For each selected scenario it computes the analytic oracle's
// expectation (internal/oracle — scheduling only, no packets), runs
// the full pipeline, and renders the expected-vs-actual check table.
// With two scenarios it additionally diffs their measured headline
// metrics side by side; identical analyses report an empty diff
// (comparing a scenario against itself is the pipeline's end-to-end
// self-test). With -i the single scenario's expectation is validated
// against a replay of the stored capture instead of a fresh run —
// combined with -salvage, that checks a damaged capture against the
// oracle's degraded-run bounds (DESIGN.md §14). Oracle violations make
// the command fail, so CI can gate on it.

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/clobber"
	"quicsand/internal/oracle"
	"quicsand/internal/report"
	"quicsand/internal/scenario"
)

// scenarioList collects repeated -scenario flags.
type scenarioList []string

func (s *scenarioList) String() string { return strings.Join(*s, ",") }

func (s *scenarioList) Set(v string) error {
	if len(*s) >= 2 {
		return errors.New("at most two -scenario flags")
	}
	*s = append(*s, v)
	return nil
}

// compareScenario is one scenario's validated run.
type compareScenario struct {
	Name       string          `json:"name"`
	Seed       uint64          `json:"seed"`
	Scale      float64         `json:"scale"`
	Checks     []oracle.Result `json:"checks"`
	Violations int             `json:"violations"`
	Headline   []report.Metric `json:"headline"`

	exp *oracle.Expectation
}

// compareDoc is the -json document.
type compareDoc struct {
	Scenarios []*compareScenario  `json:"scenarios"`
	Diff      []report.MetricDiff `json:"diff,omitempty"`
	Identical *bool               `json:"identical,omitempty"`
}

func runCompare(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("quicsand compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := addBaseSimFlags(fs)
	sal := addSalvageFlags(fs)
	var sels scenarioList
	fs.Var(&sels, "scenario", "scenario to validate; repeat for a side-by-side diff (or 'list')")
	in := fs.String("i", "", "validate a replay of this capture instead of a fresh run (single -scenario only)")
	jsonOut := fs.Bool("json", false, "emit the checks and diff as one JSON document")
	if help, err := parse(fs, args); help || err != nil {
		return err
	}
	for _, sel := range sels {
		if sel == "list" {
			listScenarios(stdout)
			return nil
		}
	}
	if len(sels) == 0 {
		return errors.New("compare: at least one -scenario is required (use -scenario list for the registry)")
	}
	if len(sels) > 1 && (*opts.cpuProfile != "" || *opts.memProfile != "") {
		// Each scenario's run would truncate the same profile file,
		// silently discarding all but the last — refuse instead.
		return errors.New("compare: -cpuprofile/-memprofile need a single -scenario (profiles would overwrite each other)")
	}
	if *in != "" && len(sels) > 1 {
		return errors.New("compare: -i validates one capture against one -scenario")
	}
	if err := clobber.Check([]clobber.Flag{{Name: "-i", Path: *in}}, opts.outputs()); err != nil {
		return fmt.Errorf("compare: %w", err)
	}

	pol, err := sal.policy()
	if err != nil {
		return err
	}
	var runs []*compareScenario
	for _, sel := range sels {
		sc, err := resolveScenario(sel)
		if err != nil {
			return err
		}
		run, err := compareOne(opts, sc, *in, pol, stderr)
		if err != nil {
			return fmt.Errorf("compare %s: %w", sc.Name, err)
		}
		runs = append(runs, run)
	}

	doc := &compareDoc{Scenarios: runs}
	if len(runs) == 2 {
		diff := report.DiffMetrics(runs[0].Headline, runs[1].Headline)
		identical := len(diff) == 0
		doc.Diff = diff
		doc.Identical = &identical
	}

	if *jsonOut {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		renderCompare(doc, stdout)
	}

	violations := 0
	for _, run := range runs {
		violations += run.Violations
	}
	if violations > 0 {
		return fmt.Errorf("compare: %d oracle violations", violations)
	}
	return nil
}

// compareOne validates a single scenario: expectation, full run (or a
// replay of the stored capture when input is set), oracle evaluation,
// headline metrics.
func compareOne(opts *simOpts, sc *scenario.Scenario, input string, pol capture.SalvagePolicy, stderr io.Writer) (*compareScenario, error) {
	cfg, err := opts.config()
	if err != nil {
		return nil, err
	}
	cfg.Scenario = sc
	cfg.Salvage = pol
	exp, err := quicsand.Expect(cfg)
	if err != nil {
		return nil, err
	}
	var a *quicsand.Analysis
	err = opts.profiled(func() (err error) {
		if input == "" {
			a, err = quicsand.Run(cfg)
			return err
		}
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		src, err := capture.OpenFile(f)
		if err != nil {
			return fmt.Errorf("%s: %w", input, err)
		}
		defer closeSource(src)
		a, err = quicsand.Replay(cfg, src)
		if err == nil {
			reportSkipped(src, a.Telemetry.Ingest.DecodeDrops, input, stderr)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	checks := oracle.Evaluate(exp, a.OracleObserved())
	return &compareScenario{
		Name:       sc.Name,
		Seed:       cfg.Seed,
		Scale:      cfg.Scale,
		Checks:     checks,
		Violations: oracle.CountViolations(checks),
		Headline:   a.HeadlineMetrics(),
		exp:        exp,
	}, nil
}

// renderCompare writes the human-readable report: one oracle table per
// scenario, then the scenario-vs-scenario metric diff.
func renderCompare(doc *compareDoc, stdout io.Writer) {
	for _, run := range doc.Scenarios {
		fmt.Fprintf(stdout, "=== expected vs actual: %s ===\n", run.Name)
		fmt.Fprint(stdout, oracle.Report(run.exp, run.Checks))
		fmt.Fprintln(stdout)
	}
	if doc.Identical == nil {
		return
	}
	a, b := doc.Scenarios[0], doc.Scenarios[1]
	fmt.Fprintf(stdout, "=== scenario diff: %s vs %s ===\n", a.Name, b.Name)
	if *doc.Identical {
		fmt.Fprintln(stdout, "identical analyses — empty diff")
		return
	}
	rows := make([][]string, 0, len(doc.Diff))
	for _, d := range doc.Diff {
		rows = append(rows, []string{d.Name, d.A, d.B})
	}
	fmt.Fprint(stdout, report.Table([]string{"metric", a.Name, b.Name}, rows))
	fmt.Fprintf(stdout, "%d differing metrics\n", len(doc.Diff))
}
