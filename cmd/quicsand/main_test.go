package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stripIngest drops the ingest_* provenance lines replay adds to the
// headline JSON — the one intentional live-vs-replay difference.
func stripIngest(doc string) string {
	var out []string
	for _, line := range strings.Split(doc, "\n") {
		if strings.Contains(line, `"ingest_`) {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestRunHeadlineSmoke exercises flag parsing and a tiny-scale run
// through the real pipeline, including the -workers knob.
func TestRunHeadlineSmoke(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "run.json")
	var out, errOut bytes.Buffer
	err := run([]string{
		"-seed", "3", "-scale", "0.002", "-thin", "1048576",
		"-workers", "2", "-fig", "headline", "-stats", "-manifest", manifest,
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "QUIC packets captured") {
		t.Errorf("headline output missing:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "2 workers") {
		t.Errorf("-stats output missing worker count:\n%s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "telemetry (2 workers)") {
		t.Errorf("-stats output missing telemetry block:\n%s", errOut.String())
	}
	var m struct {
		Command   string         `json:"command"`
		Config    map[string]any `json:"config"`
		Telemetry map[string]any `json:"telemetry"`
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if m.Command != "quicsand simulate" || m.Config["seed"] != float64(3) || m.Telemetry == nil {
		t.Errorf("manifest content wrong: %+v", m)
	}

	// The telemetry object's key set is a consumer-facing schema: it must
	// stay what PR 15 wrote for this invocation (the metric table keeps
	// the json tags; omitempty fields that are zero here stay absent).
	var keys []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			keys = append(keys, path)
			return
		}
		for k, v := range obj {
			walk(strings.TrimPrefix(path+"."+k, "."), v)
		}
	}
	walk("", m.Telemetry)
	sort.Strings(keys)
	want, err := os.ReadFile("testdata/manifest_telemetry_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys, "\n") + "\n"; got != string(want) {
		t.Errorf("manifest telemetry keys changed:\n got\n%s want\n%s", got, want)
	}
}

// TestRunTraceFile writes the simulated month through record -o, the
// one way to write a capture, while printing a figure.
func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "month.qsnd")
	var out, errOut bytes.Buffer
	err := run([]string{
		"record", "-seed", "3", "-scale", "0.002", "-skip-research",
		"-workers", "4", "-fig", "headline", "-o", path,
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("trace file empty")
	}
	if !strings.Contains(errOut.String(), "records written") {
		t.Errorf("trace summary missing:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "QUIC packets captured") {
		t.Errorf("headline missing:\n%s", out.String())
	}
	if err := run([]string{"-scale", "0.002", "-trace", path}, &out, &errOut); err == nil {
		t.Error("simulate accepted -trace; captures are written by record -o")
	}
}

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", "nope", "-scale", "0.002", "-skip-research"}, &out, &errOut); err == nil {
		t.Error("unknown -fig accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errOut); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"record", "-scale", "0.002"}, &out, &errOut); err == nil {
		t.Error("record without -o accepted")
	}
	if err := run([]string{"replay"}, &out, &errOut); err == nil {
		t.Error("replay without -i accepted")
	}
	if err := run([]string{"convert", "-i", "x"}, &out, &errOut); err == nil {
		t.Error("convert without -o accepted")
	}
	if err := run([]string{"convert", "-i", "a", "-o", "b", "-format", "pcapng"}, &out, &errOut); err == nil {
		t.Error("unknown -format accepted")
	}
}

// TestReplayRejectsNegativeFlags pins that a negative count or duration
// on replay is an error naming its flag, raised before the capture is
// opened — never a silent default window, no heartbeat, no retries, the
// 1 ms backoff or one shard.
func TestReplayRejectsNegativeFlags(t *testing.T) {
	in := filepath.Join(t.TempDir(), "absent.qsnd")
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-window", []string{"-alerts", "-", "-window", "-1m"}},
		{"-heartbeat", []string{"-heartbeat", "-1s"}},
		{"-salvage-retries", []string{"-salvage-retries", "-1"}},
		{"-salvage-backoff", []string{"-salvage-backoff", "-1ms"}},
		{"-workers", []string{"-workers", "-1"}},
	} {
		var out, errOut bytes.Buffer
		err := run(append([]string{"replay", "-i", in}, tc.args...), &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" must not be negative") {
			t.Errorf("%s: want an error naming the flag, got %v", tc.flag, err)
		}
	}
}

// TestRecordConvertReplayRoundTrip drives the full CLI workflow the
// replay CI job scripts: record a month with its headline JSON,
// convert QSND → pcap → QSND losslessly, and replay both containers at
// a different worker count reproducing the recorded analysis exactly.
func TestRecordConvertReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	qsnd := filepath.Join(dir, "month.qsnd")
	pcap := filepath.Join(dir, "month.pcap")
	qsnd2 := filepath.Join(dir, "month2.qsnd")
	sim := []string{"-seed", "3", "-scale", "0.002", "-thin", "16384", "-fig", "headline-json"}

	var direct, errOut bytes.Buffer
	if err := run(append([]string{"record", "-o", qsnd, "-workers", "2"}, sim...), &direct, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "records written") {
		t.Errorf("record summary missing:\n%s", errOut.String())
	}
	if !strings.Contains(direct.String(), "\"quic_packets\"") {
		t.Fatalf("record -fig headline-json output:\n%s", direct.String())
	}

	var conv bytes.Buffer
	if err := run([]string{"convert", "-i", qsnd, "-o", pcap}, &conv, &conv); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"convert", "-i", pcap, "-o", qsnd2}, &conv, &conv); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(qsnd)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(qsnd2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("QSND → pcap → QSND via CLI not byte-identical")
	}

	for _, in := range []string{qsnd, pcap} {
		var replayed bytes.Buffer
		if err := run(append([]string{"replay", "-i", in, "-workers", "4"}, sim...), &replayed, &errOut); err != nil {
			t.Fatal(err)
		}
		if stripIngest(replayed.String()) != stripIngest(direct.String()) {
			t.Errorf("replay of %s diverged from recorded run:\n--- direct ---\n%s\n--- replay ---\n%s",
				filepath.Base(in), direct.String(), replayed.String())
		}
		if !strings.Contains(replayed.String(), "\"ingest_format\"") {
			t.Errorf("replay of %s missing ingest provenance:\n%s",
				filepath.Base(in), replayed.String())
		}
	}
}

// TestScenarioFlag covers the -scenario surface: the list verb, a
// built-in by name, a custom spec file, and rejection of unknown
// names and broken specs.
func TestScenarioFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-scenario", "list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"paper-2021", "handshake-flood-qfam", "retry-mitigated-flood", "versionneg-scan-campaign", "multi-vector-burst"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-scenario list missing %s:\n%s", want, out.String())
		}
	}

	out.Reset()
	err := run([]string{
		"-scenario", "retry-mitigated-flood", "-seed", "3", "-scale", "0.002",
		"-workers", "2", "-fig", "headline",
	}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scenario:                     retry-mitigated-flood") {
		t.Errorf("headline missing scenario banner:\n%s", out.String())
	}

	spec := filepath.Join(t.TempDir(), "custom.json")
	if err := os.WriteFile(spec, []byte(
		`{"name": "tiny-custom", "phases": [{"kind": "misconfig", "sources": 2000}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-scenario", spec, "-scale", "0.01", "-fig", "headline"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "tiny-custom") {
		t.Errorf("custom spec scenario missing from headline:\n%s", out.String())
	}

	if err := run([]string{"-scenario", "no-such-scenario", "-scale", "0.002"}, &out, &errOut); err == nil {
		t.Error("unknown scenario accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", bad, "-scale", "0.002"}, &out, &errOut); err == nil {
		t.Error("phase-less spec accepted")
	}
}

// TestScenarioRecordReplayRoundTrip is the CLI form of the scenario
// determinism contract: record a scenario month, replay it with the
// same flags at another worker count, and require the identical
// headline JSON (which embeds the scenario name).
func TestScenarioRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	qsnd := filepath.Join(dir, "burst.qsnd")
	sim := []string{"-scenario", "multi-vector-burst", "-seed", "3", "-scale", "0.002", "-fig", "headline-json"}

	var direct, replayed, errOut bytes.Buffer
	if err := run(append([]string{"record", "-o", qsnd, "-workers", "2"}, sim...), &direct, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(direct.String(), "\"scenario\": \"multi-vector-burst\"") {
		t.Fatalf("scenario missing from headline JSON:\n%s", direct.String())
	}
	if err := run(append([]string{"replay", "-i", qsnd, "-workers", "8"}, sim...), &replayed, &errOut); err != nil {
		t.Fatal(err)
	}
	if stripIngest(replayed.String()) != stripIngest(direct.String()) {
		t.Errorf("scenario replay diverged:\n--- direct ---\n%s\n--- replay ---\n%s", direct.String(), replayed.String())
	}
}

// TestConvertFailureLeavesNoPartialOutput: a conversion that dies on
// a corrupt record must not leave a truncated capture behind to be
// mistaken for a usable one.
func TestConvertFailureLeavesNoPartialOutput(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.qsnd")
	var out, errOut bytes.Buffer
	if err := run([]string{"record", "-scale", "0.002", "-skip-research", "-o", good}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.qsnd")
	if err := os.WriteFile(trunc, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	dst := filepath.Join(dir, "out.pcap")
	if err := run([]string{"convert", "-i", trunc, "-o", dst}, &out, &errOut); err == nil {
		t.Fatal("truncated input converted without error")
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Errorf("partial output left behind (stat err = %v)", err)
	}
}

// TestConvertRefusesToOverwriteInput: -o naming the -i file (here by
// another spelling) must fail before anything is created, leaving the
// input byte for byte as it was. It used to truncate the input, fail on
// the empty header, and then unlink it as a partial output.
func TestConvertRefusesToOverwriteInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "in.qsnd")
	var out, errOut bytes.Buffer
	if err := run([]string{"record", "-scale", "0.002", "-skip-research", "-o", in}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	err = run([]string{"convert", "-i", in, "-o", filepath.Join(dir, ".", "in.qsnd")}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "is the same file as -i") {
		t.Fatalf("convert onto its input: err = %v", err)
	}
	if got, err := os.ReadFile(in); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("input changed: %d bytes (want %d), %v", len(got), len(want), err)
	}
}

// TestRecordRefusesOutputCollision: two outputs naming one file must
// fail before the run, creating neither.
func TestRecordRefusesOutputCollision(t *testing.T) {
	path := filepath.Join(t.TempDir(), "month.qsnd")
	var out, errOut bytes.Buffer
	err := run([]string{"record", "-scale", "0.002", "-skip-research", "-o", path, "-manifest", path}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "-manifest "+path+" is the same file as -o") {
		t.Fatalf("record -o F -manifest F: err = %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("output created before the check (stat err = %v)", err)
	}
}

// TestReplayRefusesToOverwriteInput: -alerts naming the capture being
// replayed must fail before the replay, leaving the capture intact.
func TestReplayRefusesToOverwriteInput(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "month.qsnd")
	var out, errOut bytes.Buffer
	if err := run([]string{"record", "-scale", "0.002", "-skip-research", "-o", in}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "link.qsnd")
	if err := os.Link(in, link); err != nil {
		t.Fatal(err)
	}
	for _, outFlag := range []string{"-alerts", "-manifest", "-trace-out"} {
		err := run([]string{"replay", "-scale", "0.002", "-skip-research", "-i", in, outFlag, link}, &out, &errOut)
		if err == nil || !strings.Contains(err.Error(), outFlag+" "+link+" is the same file as -i") {
			t.Errorf("replay %s onto its input: err = %v", outFlag, err)
		}
	}
	if got, err := os.ReadFile(in); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("input changed: %d bytes (want %d), %v", len(got), len(want), err)
	}
}

func TestReplayRejectsGarbageInput(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "junk.qsnd")
	if err := os.WriteFile(bad, []byte("this is not a capture"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"replay", "-i", bad, "-scale", "0.002"}, &out, &errOut); err == nil {
		t.Error("garbage input accepted")
	}
	if err := run([]string{"replay", "-i", filepath.Join(dir, "missing"), "-scale", "0.002"}, &out, &errOut); err == nil {
		t.Error("missing input accepted")
	}
}

// TestScenarioFlagBadSpecs covers the -scenario file error surface
// beyond the phase-less spec above: syntactically broken JSON, JSON
// with unknown fields (strict decoding), and a directory passed as a
// spec.
func TestScenarioFlagBadSpecs(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer

	mangled := filepath.Join(dir, "mangled.json")
	if err := os.WriteFile(mangled, []byte(`{"name": "x", "phases": [{"kind": "misconfig",`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", mangled, "-scale", "0.002"}, &out, &errOut); err == nil {
		t.Error("mangled JSON accepted")
	}

	unknown := filepath.Join(dir, "unknown.json")
	if err := os.WriteFile(unknown, []byte(
		`{"name": "x", "phases": [{"kind": "scan", "sources": 5, "turbo": true}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", unknown, "-scale", "0.002"}, &out, &errOut); err == nil {
		t.Error("unknown spec field accepted")
	}
	if err := run([]string{"-scenario", dir, "-scale", "0.002"}, &out, &errOut); err == nil {
		t.Error("directory accepted as spec")
	}
}

// TestCompareCLI drives the compare subcommand end to end: the
// self-diff must be empty and violation-free, and the flag error
// surface (missing scenario, unknown scenario, too many scenarios)
// must reject before any simulation runs.
func TestCompareCLI(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{
		"compare", "-scenario", "retry-mitigated-flood", "-scenario", "retry-mitigated-flood",
		"-seed", "3", "-scale", "0.002", "-thin", "16384", "-workers", "2",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"verdict: all oracle checks hold", "identical analyses — empty diff"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	err = run([]string{
		"compare", "-json", "-scenario", "retry-mitigated-flood", "-scenario", "handshake-flood-qfam",
		"-seed", "3", "-scale", "0.002", "-thin", "16384", "-workers", "2",
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("cross-compare failed: %v", err)
	}
	var doc struct {
		Scenarios []struct {
			Name       string `json:"name"`
			Violations int    `json:"violations"`
		} `json:"scenarios"`
		Diff      []struct{ Name string } `json:"diff"`
		Identical *bool                   `json:"identical"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("compare -json output unparsable: %v\n%s", err, out.String())
	}
	if len(doc.Scenarios) != 2 || doc.Scenarios[0].Name != "retry-mitigated-flood" {
		t.Errorf("compare -json scenarios: %+v", doc.Scenarios)
	}
	for _, s := range doc.Scenarios {
		if s.Violations != 0 {
			t.Errorf("%s: %d oracle violations", s.Name, s.Violations)
		}
	}
	if doc.Identical == nil || *doc.Identical || len(doc.Diff) == 0 {
		t.Errorf("different scenarios reported as identical (diff %d rows)", len(doc.Diff))
	}

	// Error surface: every rejection must come from flag/scenario
	// resolution, before a pipeline run could burn seconds.
	for _, tc := range [][]string{
		{"compare"},
		{"compare", "-scenario", "no-such-scenario"},
		{"compare", "-scenario", "paper-2021", "-scenario", "paper-2021", "-scenario", "paper-2021"},
		{"compare", "-scenario", filepath.Join(t.TempDir(), "missing.json")},
	} {
		if err := run(tc, &out, &errOut); err == nil {
			t.Errorf("%v accepted", tc)
		}
	}

	out.Reset()
	if err := run([]string{"compare", "-scenario", "list"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "built-in scenarios:") {
		t.Errorf("compare -scenario list output:\n%s", out.String())
	}
}

// TestConvertSinkErrors covers the path-level convert error surface:
// an uncreatable output path and a missing input must both fail up
// front. The mid-copy sticky-writer path (a sink that starts erroring
// after N bytes, full-disk style) is driven at the capture layer by
// TestCopyOntoFullSink, and a mid-copy *read* failure with output
// cleanup by TestConvertFailureLeavesNoPartialOutput above.
func TestConvertSinkErrors(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.qsnd")
	var out, errOut bytes.Buffer
	if err := run([]string{"record", "-scale", "0.002", "-skip-research", "-o", good}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{
		"convert", "-i", good, "-o", filepath.Join(dir, "no-such-dir", "out.pcap"),
	}, &out, &errOut); err == nil {
		t.Error("uncreatable output path accepted")
	}
	if err := run([]string{"convert", "-i", filepath.Join(dir, "absent.qsnd"), "-o", filepath.Join(dir, "x.pcap")}, &out, &errOut); err == nil {
		t.Error("missing input accepted")
	}
}

// TestSalvageCLI drives the degraded-input flags end to end: a capture
// with one damaged mid-file record aborts replay, convert and compare
// by default, while -salvage replays it to completion with the skip
// warning on stderr and the salvage block in -stats, converts it, and
// passes compare's degraded oracle bounds.
func TestSalvageCLI(t *testing.T) {
	dir := t.TempDir()
	qsnd := filepath.Join(dir, "month.qsnd")
	sim := []string{
		"-scenario", "handshake-flood-qfam", "-seed", "97",
		"-scale", "0.002", "-thin", "16384", "-fig", "headline-json",
	}

	var out, errOut bytes.Buffer
	if err := run(append([]string{"record", "-o", qsnd, "-workers", "2"}, sim...), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(qsnd)
	if err != nil {
		t.Fatal(err)
	}
	var offs []uint64
	for off := uint64(8); off+30 <= uint64(len(data)); {
		offs = append(offs, off)
		off += 30 + uint64(binary.LittleEndian.Uint16(data[off+28:]))
	}
	if len(offs) < 8 {
		t.Fatalf("fixture too small: %d records", len(offs))
	}
	data[offs[len(offs)/2]+20] = 0xFF // invalid proto mid-file
	bad := filepath.Join(dir, "damaged.qsnd")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Fail-fast keeps the terminal error on every verb.
	if err := run(append([]string{"replay", "-i", bad}, sim...), &out, &errOut); err == nil {
		t.Error("fail-fast replay of damaged capture accepted")
	}
	if err := run([]string{"convert", "-i", bad, "-o", filepath.Join(dir, "x.pcap")}, &out, &errOut); err == nil {
		t.Error("fail-fast convert of damaged capture accepted")
	}

	out.Reset()
	errOut.Reset()
	if err := run(append([]string{"replay", "-i", bad, "-salvage", "-stats"}, sim...), &out, &errOut); err != nil {
		t.Fatalf("salvage replay failed: %v\n%s", err, errOut.String())
	}
	for _, want := range []string{"salvage skipped 1 corrupt record", "salvage:"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("salvage replay stderr missing %q:\n%s", want, errOut.String())
		}
	}
	if !strings.Contains(out.String(), `"quic_packets"`) {
		t.Errorf("salvage replay headline missing:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if err := run([]string{
		"convert", "-i", bad, "-o", filepath.Join(dir, "damaged.pcap"), "-salvage",
	}, &out, &errOut); err != nil {
		t.Fatalf("salvage convert failed: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(errOut.String(), "salvage skipped 1 corrupt record") {
		t.Errorf("salvage convert stderr missing the skip warning:\n%s", errOut.String())
	}

	cmp := []string{
		"compare", "-scenario", "handshake-flood-qfam", "-i", bad,
		"-seed", "97", "-scale", "0.002", "-thin", "16384",
	}
	if err := run(cmp, &out, &errOut); err == nil {
		t.Error("fail-fast compare of damaged capture accepted")
	}
	out.Reset()
	errOut.Reset()
	if err := run(append(cmp, "-salvage"), &out, &errOut); err != nil {
		t.Fatalf("salvaged compare failed: %v\n%s%s", err, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "verdict: all oracle checks hold") {
		t.Errorf("salvaged compare verdict missing:\n%s", out.String())
	}

	// -i with a side-by-side diff is a flag error, not a pipeline run.
	if err := run([]string{
		"compare", "-scenario", "paper-2021", "-scenario", "paper-2021", "-i", bad,
	}, &out, &errOut); err == nil {
		t.Error("compare -i with two scenarios accepted")
	}
}

// TestReplayAlertsCLI covers `replay -alerts`: the capture streams
// through the sliding-window detectors, alert episodes land as JSON
// lines, and the analysis output stays bit-identical to the batch
// replay. The flood built-in at golden scale is proven to alert
// (TestAlertOracle), so an empty stream here is a regression.
func TestReplayAlertsCLI(t *testing.T) {
	dir := t.TempDir()
	qsnd := filepath.Join(dir, "flood.qsnd")
	alertFile := filepath.Join(dir, "alerts.jsonl")
	sim := []string{"-seed", "97", "-scale", "0.002", "-scenario", "handshake-flood-qfam", "-fig", "headline-json"}

	var direct, errOut bytes.Buffer
	if err := run(append([]string{"record", "-o", qsnd, "-workers", "2"}, sim...), &direct, &errOut); err != nil {
		t.Fatal(err)
	}

	var plain bytes.Buffer
	if err := run(append([]string{"replay", "-i", qsnd, "-workers", "2"}, sim...), &plain, &errOut); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	// -trace-out, -stats and -manifest ride along: the alert replay is the
	// batch replay with a detector bank, so it must record the same
	// timeline tracks, print a real stage table and report the real ingest
	// ledger.
	traceFile := filepath.Join(dir, "stream-flight.json")
	manifest := filepath.Join(dir, "alerts-run.json")
	var streamed bytes.Buffer
	if err := run(append([]string{"replay", "-i", qsnd, "-workers", "2", "-alerts", alertFile,
		"-trace-out", traceFile, "-stats", "-manifest", manifest}, sim...), &streamed, &errOut); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != plain.String() {
		t.Errorf("streaming replay diverged from batch replay:\n--- batch ---\n%s\n--- stream ---\n%s",
			plain.String(), streamed.String())
	}
	if !strings.Contains(errOut.String(), "alerts (window=1m0s)") {
		t.Errorf("alert summary missing on stderr:\n%s", errOut.String())
	}
	// The mapped file was scattered as spans and lent, not copied; the
	// shards decoded.
	var m struct {
		Telemetry struct {
			Ingest struct {
				SpanBytes     uint64  `json:"span_bytes"`
				SpanCopyBytes *uint64 `json:"span_copy_bytes"`
			} `json:"ingest"`
		} `json:"telemetry"`
	}
	if mdata, err := os.ReadFile(manifest); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatalf("manifest not valid JSON: %v", err)
	}
	if in := m.Telemetry.Ingest; in.SpanBytes == 0 || in.SpanCopyBytes == nil || *in.SpanCopyBytes != 0 {
		t.Errorf("manifest ingest = %+v, want every span byte lent", in)
	}
	stages := loadTrace(t, traceFile).spanStages()
	for _, want := range []string{"plan", "ingest", "decode", "scatter", "analyze", "dissect", "sessions", "reduce"} {
		if stages[want] == 0 {
			t.Errorf("streaming replay trace has no %q spans: %v", want, stages)
		}
	}
	for _, want := range []string{"  schedule ", "  analyze ", "  reduce ", "busiest shard", "stage-busy % per"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("-stats of a streaming replay misses %q:\n%s", want, errOut.String())
		}
	}
	if strings.Contains(errOut.String(), " 0s wall") {
		t.Errorf("-stats of a streaming replay reports a zero wall clock:\n%s", errOut.String())
	}
	data, err := os.ReadFile(alertFile)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("alert stream empty for a flood scenario")
	}
	sawRate := false
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("alert line %d not JSON: %v\n%s", i, err, line)
		}
		if obj["kind"] == "rate" {
			sawRate = true
		}
	}
	if !sawRate {
		t.Errorf("no rate alert in stream:\n%s", data)
	}

	// The alert stream does not depend on the worker count.
	alerts8 := filepath.Join(dir, "alerts8.jsonl")
	if err := run(append([]string{"replay", "-i", qsnd, "-workers", "8", "-alerts", alerts8}, sim...), &streamed, &errOut); err != nil {
		t.Fatal(err)
	}
	if data8, err := os.ReadFile(alerts8); err != nil || !bytes.Equal(data8, data) {
		t.Errorf("alert file differs between -workers 2 and -workers 8 (err=%v)", err)
	}

	// An invalid detector configuration fails before any packet is read:
	// over a capture whose first record is junk, the detector error is the
	// one reported — from the config file and from the shared driver's
	// validation of the -window override alike — and no alert file appears.
	recorded, err := os.ReadFile(qsnd)
	if err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, "junk.qsnd")
	if err := os.WriteFile(junk, append(recorded[:8:8], bytes.Repeat([]byte{0xff}, 64)...), 0o644); err != nil {
		t.Fatal(err)
	}
	badConfig := filepath.Join(dir, "detect.json")
	if err := os.WriteFile(badConfig, []byte(`{"min_packets": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	noAlerts := filepath.Join(dir, "never.jsonl")
	if err := run(append([]string{"replay", "-i", junk, "-alerts", noAlerts}, sim...), &streamed, &errOut); err == nil ||
		strings.Contains(err.Error(), "detect:") {
		t.Fatalf("junk capture with valid detectors: err = %v, want the capture's corruption error", err)
	}
	for _, bad := range [][]string{{"-detect-config", badConfig}, {"-window", "5ms"}} {
		args := append([]string{"replay", "-i", junk, "-alerts", noAlerts}, bad...)
		if err := run(append(args, sim...), &streamed, &errOut); err == nil || !strings.Contains(err.Error(), "detect: ") {
			t.Errorf("replay %v: err = %v, want the detector validation error", bad, err)
		}
	}
	if _, err := os.Stat(noAlerts); !os.IsNotExist(err) {
		t.Errorf("failed replays left an alert file behind (stat err=%v)", err)
	}

	// -window spelled without -alerts is a loud error, not a no-op.
	if err := run(append([]string{"replay", "-i", qsnd, "-window", "30s"}, sim...), &streamed, &errOut); err == nil ||
		!strings.Contains(err.Error(), "-alerts") {
		t.Errorf("replay -window without -alerts: want a requires error, got %v", err)
	}
}
