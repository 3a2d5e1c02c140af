package quicsand

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"quicsand/internal/detect"
	"quicsand/internal/scenario"
)

// alertGoldenDir holds one JSON-lines alert stream per built-in, as
// `quicsand replay -alerts` writes it: seed 2021, scale 0.02, the
// default research thinning and identity, detect.Default(). Regenerate
// only for an intentional change to the detectors or to the stream
// they watch:
//
//	go test -run TestAlertGolden -update
const alertGoldenDir = "testdata/alerts"

// TestAlertGolden streams every built-in month through the detectors
// at workers 1 and 8 and requires the alert bytes of the checked-in
// stream: a detector, a threshold or a merge order that moves one
// alert fails here, and so does one that moves none at one worker
// count only.
func TestAlertGolden(t *testing.T) {
	dcfg := detect.Default()
	for _, name := range scenario.Builtins() {
		t.Run(name, func(t *testing.T) {
			sc, err := scenario.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(alertGoldenDir, name+".jsonl")
			for _, workers := range []int{1, 8} {
				cfg := Config{Seed: 2021, Scale: 0.02, Workers: workers, Scenario: sc}
				var got bytes.Buffer
				if err := detect.WriteAlerts(&got, streamAlerts(t, cfg, dcfg)); err != nil {
					t.Fatal(err)
				}
				if *update && workers == 1 {
					if err := os.MkdirAll(alertGoldenDir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					t.Logf("wrote %s (%d lines)", path, bytes.Count(got.Bytes(), []byte("\n")))
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test -run TestAlertGolden -update` to create it)", err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("workers=%d: alerts differ from %s:\n--- want ---\n%s--- got ---\n%s", workers, path, want, got.Bytes())
				}
			}
		})
	}
}
