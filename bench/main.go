// Command bench is the repository's benchmark: four telescope
// workloads measured end to end (untraced) and layer by layer (a
// traced pass), with every output checked against the analytic oracle
// and the bit-identity digests. See README.md.
//
//	go -C bench run .                       every workload, both passes
//	go -C bench run . -check                two end-to-end sets, compared against the bounds
//	bash bench/run.sh --workload sim-paper --seed 7 --seconds 12 --trace 0    (the driver's form)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// spec is the part of BENCHMARK.json the harness itself reads: the
// run length and, for -check, each end-to-end metric's direction and
// bound.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// report is the results file: host fingerprint first, then every run.
type report struct {
	Host   host         `json:"host"`
	Runs   []*runResult `json:"runs"`
	WallS  float64      `json:"total_wall_s"`
	OutDir string       `json:"fixture_and_trace_dir"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (default: all four)")
	seed := flag.Uint64("seed", 7, "workload seed; a claimed gain must also hold on another one")
	seconds := flag.Float64("seconds", 0, "timed seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", -1, "0 = end-to-end metrics, 1 = traced per-layer pass (default: both)")
	check := flag.Bool("check", false, "run two end-to-end sets back to back and fail if a metric disagrees by more than its bound")
	out := flag.String("out", "out", "directory for fixtures, traces and results.json")
	specPath := flag.String("spec", filepath.Join("..", "BENCHMARK.json"), "path of BENCHMARK.json")
	flag.Parse()
	if err := run(os.Stdout, *workload, *seed, *seconds, *trace, *check, *out, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(stdout io.Writer, workload string, seed uint64, seconds float64, trace int, check bool, outDir, specPath string) error {
	start := time.Now()
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	o := options{seed: seed, seconds: seconds, minReps: 7, setups: 3, shrink: 1, outDir: outDir}
	names := workloadOrder
	if workload != "" {
		names = []string{workload}
	}
	rep := &report{Host: fingerprint(), OutDir: outDir}
	rep.Host.print(stdout)

	var failed bool
	if check {
		failed, err = runCheck(stdout, rep, sp, names, o)
	} else {
		failed, err = runAll(stdout, rep, names, o, trace)
	}
	if err != nil {
		return err
	}
	rep.WallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "# total wall %.1f s\n", rep.WallS)
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644); err != nil {
		return err
	}
	if len(rep.Runs) == 1 {
		line, err := json.Marshal(rep.Runs[0].driverLine())
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed {
		return fmt.Errorf("correctness gate or check failed (see the FAILED lines)")
	}
	return nil
}

// runAll runs each workload's end-to-end pass and traced pass (or only
// the one -trace selects) and cross-checks replay ≡ live between the
// two paper workloads when both ran.
func runAll(stdout io.Writer, rep *report, names []string, o options, trace int) (failed bool, err error) {
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			if trace == 0 && traced || trace == 1 && !traced {
				continue
			}
			pass := runEndToEnd
			if traced {
				pass = runTraced
			}
			res, err := pass(name, o)
			if err != nil {
				return false, err
			}
			res.print(stdout)
			rep.Runs = append(rep.Runs, res)
			failed = failed || res.Failed > 0
		}
	}
	digests := map[string]string{}
	for _, r := range rep.Runs {
		digests[r.Workload] = r.Digest
	}
	if live, replay := digests[simPaper], digests[replayQSND]; live != "" && replay != "" && live != replay {
		fmt.Fprintf(stdout, "# FAILED replay ≡ live: %s digest %s, %s digest %s\n", simPaper, live, replayQSND, replay)
		failed = true
	}
	return failed, nil
}

// runCheck is the noise check: two full end-to-end sets of the same
// commit must agree on every metric within that metric's own bound.
func runCheck(stdout io.Writer, rep *report, sp *spec, names []string, o options) (failed bool, err error) {
	var sets [2]map[string]*runResult
	for i := range sets {
		sets[i] = map[string]*runResult{}
		for _, name := range names {
			res, err := runEndToEnd(name, o)
			if err != nil {
				return false, err
			}
			fmt.Fprintf(stdout, "# set %d\n", i+1)
			res.print(stdout)
			rep.Runs = append(rep.Runs, res)
			sets[i][name] = res
			failed = failed || res.Failed > 0
		}
	}
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			a, b := sets[0][name].Metrics[m.Name].Value, sets[1][name].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "FAILED"
				failed = true
			}
			fmt.Fprintf(stdout, "# check %s %s set1=%.6g set2=%.6g worse_by=%+.2f%% bound=%.0f%% %s\n",
				name, m.Name, a, b, worse*100, m.Bound*100, verdict)
		}
	}
	return failed, nil
}
