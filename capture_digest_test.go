package quicsand

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/scenario"
)

// TestRecordCaptureDigests pins the bytes `quicsand record -scenario S
// -seed 7 -scale 0.01 -o F` writes for every built-in, in both
// container formats, with the default (embedded) signing identity and
// record's default thinning. The digests are of the files that command
// wrote; any changed byte in the generator, the tap merge or either
// writer fails here.
func TestRecordCaptureDigests(t *testing.T) {
	want := map[string]map[capture.Format]string{
		"handshake-flood-qfam": {
			capture.FormatQSND: "3e54d87f45035cf0448e89b5953c3303f608493a2d3a0dba50a05366dd2557d2",
			capture.FormatPcap: "cc9d53528ec454bd072226b7213338be6aa368eba94d105b8bc37bd674e2bee1",
		},
		"multi-vector-burst": {
			capture.FormatQSND: "dcfc4ab8d5345a775cc02fd96161f693988d9bdb26ec1d6097829544184130a3",
			capture.FormatPcap: "2fb59ea8bc626f0c735a97cb2a70db1933fdcf13ae26d67f50c31a23cb8455a1",
		},
		"paper-2021": {
			capture.FormatQSND: "34491579401201303faaf0c56874723759967e6fc99e1a03b3794773c0180b9a",
			capture.FormatPcap: "ea9faaa124077c4bade4e66bdd49e6bbc9b9c1b17ba1cc176bd9d7dbc4b9e11b",
		},
		"retry-mitigated-flood": {
			capture.FormatQSND: "f3ede1e1fd654de47089519252b45f1395554b9bbfc8d4d59e56da87f10244ff",
			capture.FormatPcap: "ae3466cc886a5da2c53316ae3cad603336e98aeab84c1f34d99fe91c0e64cb9a",
		},
		"versionneg-scan-campaign": {
			capture.FormatQSND: "2a16c91a3e58f8badcbfe87c9e82ed5d5714ee530527604367c0dba486642db6",
			capture.FormatPcap: "7adfb7f9e8c023cfd8d60bb97018737346f52bfbbd6e4049ed04f58505b50850",
		},
	}
	for _, name := range scenario.Builtins() {
		for _, f := range []capture.Format{capture.FormatQSND, capture.FormatPcap} {
			sc, err := scenario.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			sink := capture.NewSink(h, f)
			// record's defaults: -thin 64, the embedded identity.
			if _, err := Run(Config{Scenario: sc, Seed: 7, Scale: 0.01, ResearchThin: 64, Workers: 2, Trace: sink}); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[name][f] {
				t.Errorf("%s %s: capture sha256 %s, want %s (%d records)", name, f, got, want[name][f], sink.Count())
			}
		}
	}
}
