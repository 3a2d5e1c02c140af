package quicsand

import (
	"bytes"
	"compress/gzip"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"quicsand/internal/capture"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
	"quicsand/internal/tlsmini"
)

// The golden-trace regression corpus: one tiny, thinned QSND
// checkpoint (gzipped) plus the full rendered analysis per built-in
// scenario, checked in under testdata/golden. TestGolden re-runs every
// scenario and asserts the live trace is byte-identical to the fixture
// and the Analysis bit-identical both live and replayed from the
// fixture — so any PR that shifts a draw, a merge order, a dissection
// result or a figure rendering fails against frozen artifacts.
//
// Regenerate after an *intentional* stream change with:
//
//	go test -run TestGolden -update
//
// The fixed identity (identity.pem) pins certificate bytes across
// processes; delete it before -update only if the identity format
// itself changes (every trace fixture regenerates with it).

var update = flag.Bool("update", false, "rewrite testdata/golden fixtures")

const goldenDir = "testdata/golden"

// goldenRuns fixes the corpus parameters. Scales are chosen to keep
// each fixture small (paper-2021 carries the whole month and gets the
// tiniest scale) while every phase kind still schedules events.
var goldenRuns = []struct {
	name  string
	scale float64
}{
	{"paper-2021", 0.0005},
	{"handshake-flood-qfam", 0.002},
	{"retry-mitigated-flood", 0.002},
	{"versionneg-scan-campaign", 0.002},
	{"multi-vector-burst", 0.002},
}

// encodeIdentityPEM writes an identity as tlsmini.ParseIdentityPEM reads
// it: a certificate block followed by an EC private-key block.
func encodeIdentityPEM(id *tlsmini.Identity) ([]byte, error) {
	keyDER, err := x509.MarshalECPrivateKey(id.Key)
	if err != nil {
		return nil, fmt.Errorf("marshal key: %w", err)
	}
	out := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: id.CertDER})
	return append(out, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})...), nil
}

func goldenIdentity(t *testing.T) *tlsmini.Identity {
	t.Helper()
	path := filepath.Join(goldenDir, "identity.pem")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) && *update {
		id, genErr := tlsmini.GenerateSelfSigned("quic.example.net", 600)
		if genErr != nil {
			t.Fatal(genErr)
		}
		pem, encErr := encodeIdentityPEM(id)
		if encErr != nil {
			t.Fatal(encErr)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, pem, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("generated %s", path)
		return id
	}
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create the corpus)", err)
	}
	id, err := tlsmini.ParseIdentityPEM(data)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func goldenConfig(name string, scale float64, id *tlsmini.Identity, t *testing.T) Config {
	sc, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Seed: 97, Scale: scale, ResearchThin: 1 << 14,
		Workers: 4, Identity: id, Scenario: sc,
	}
}

func readGzFixture(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create the corpus)", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	return data
}

func writeGzFixture(t *testing.T, path string, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d trace bytes, %d gzipped)", path, len(data), buf.Len())
}

// TestGolden is the corpus gate (see the file comment).
func TestGolden(t *testing.T) {
	id := goldenIdentity(t)
	for _, run := range goldenRuns {
		run := run
		t.Run(run.name, func(t *testing.T) {
			tracePath := filepath.Join(goldenDir, run.name+".qsnd.gz")
			renderPath := filepath.Join(goldenDir, run.name+".render.txt")

			// Live run with a trace tap.
			var trace bytes.Buffer
			w := telescope.NewWriter(&trace)
			cfg := goldenConfig(run.name, run.scale, id, t)
			cfg.Trace = w
			live, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if w.Count() == 0 {
				t.Fatal("empty golden month")
			}
			render := live.RenderAll()

			if *update {
				writeGzFixture(t, tracePath, trace.Bytes())
				if err := os.WriteFile(renderPath, []byte(render), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}

			// Byte-identical trace against the frozen fixture.
			want := readGzFixture(t, tracePath)
			if !bytes.Equal(trace.Bytes(), want) {
				t.Errorf("trace diverged from %s: %d vs %d bytes (or content); regenerate with -update only for intentional stream changes",
					tracePath, len(trace.Bytes()), len(want))
			}

			// Bit-identical rendered analysis.
			wantRender, err := os.ReadFile(renderPath)
			if err != nil {
				t.Fatal(err)
			}
			if render != string(wantRender) {
				t.Errorf("rendered analysis diverged from %s (diff the RenderAll output)", renderPath)
			}

			// The frozen fixture replays into the same Analysis at a
			// different worker count (live Run and QSND Replay agree).
			src, err := capture.NewSource(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			replayCfg := goldenConfig(run.name, run.scale, id, t)
			replayCfg.Workers = 2
			replayed, err := Replay(replayCfg, src)
			if err != nil {
				t.Fatal(err)
			}
			expectSameAnalysis(t, fmt.Sprintf("golden/%s", run.name), live, replayed)
		})
	}
	checkGoldenOrphans(t)
}

// checkGoldenOrphans keeps the fixture directory in lockstep with
// goldenRuns: renaming or removing a built-in used to leave its old
// .qsnd.gz/.render.txt behind (and `-update` silently kept
// regenerating around them). Unknown fixtures now fail CI; `-update`
// prunes them instead.
func checkGoldenOrphans(t *testing.T) {
	t.Helper()
	known := map[string]bool{"identity.pem": true}
	for _, run := range goldenRuns {
		known[run.name+".qsnd.gz"] = true
		known[run.name+".render.txt"] = true
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return
		}
		t.Fatal(err)
	}
	for _, e := range entries {
		if known[e.Name()] {
			continue
		}
		path := filepath.Join(goldenDir, e.Name())
		if *update {
			if err := os.Remove(path); err != nil {
				t.Errorf("pruning stale fixture %s: %v", path, err)
				continue
			}
			t.Logf("pruned stale fixture %s", path)
			continue
		}
		t.Errorf("orphan fixture %s: no golden run produces it (renamed built-in? regenerate with -update to prune)", path)
	}
}
