// Record/replay: checkpoint a simulated measurement month to disk,
// export it as a Wireshark-readable pcap, then re-analyze the stored
// capture through the sharded engine — demonstrating that
// `Run → trace → Replay` reproduces the live analysis bit-identically
// (internal/capture, DESIGN.md §10).
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"quicsand"
	"quicsand/internal/capture"
	"quicsand/internal/telescope"
)

func main() {
	dir, err := os.MkdirTemp("", "quicsand-replay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	qsndPath := filepath.Join(dir, "april2021.qsnd")
	pcapPath := filepath.Join(dir, "april2021.pcap")

	cfg := quicsand.Config{
		Seed:         1,
		Scale:        0.02,
		ResearchThin: 16384,
	}

	// 1. Simulate the month, checkpointing every captured packet.
	f, err := os.Create(qsndPath)
	if err != nil {
		log.Fatal(err)
	}
	w := telescope.NewWriter(f)
	cfg.Trace = w
	start := time.Now()
	live, err := quicsand.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d packets in %v\n", w.Count(), time.Since(start).Round(time.Millisecond))

	// 2. Export the checkpoint as pcap for external tools.
	in, err := os.Open(qsndPath)
	if err != nil {
		log.Fatal(err)
	}
	src, err := capture.NewSource(in)
	if err != nil {
		log.Fatal(err)
	}
	out, err := os.Create(pcapPath)
	if err != nil {
		log.Fatal(err)
	}
	sink := capture.NewSink(out, capture.FormatPcap)
	if _, err := capture.Copy(sink, src); err != nil {
		log.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		log.Fatal(err)
	}
	in.Close()
	if err := out.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %s (open it in Wireshark)\n", filepath.Base(pcapPath))

	// 3. Replay the pcap through the full analysis at a different
	// worker count; the figures come out identical to the live run.
	pf, err := os.Open(pcapPath)
	if err != nil {
		log.Fatal(err)
	}
	defer pf.Close()
	psrc, err := capture.NewSource(pf)
	if err != nil {
		log.Fatal(err)
	}
	replayCfg := cfg
	replayCfg.Trace = nil
	replayCfg.Workers = 2
	start = time.Now()
	replayed, err := quicsand.Replay(replayCfg, psrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed in %v\n\n", time.Since(start).Round(time.Millisecond))

	if live.Headline() != replayed.Headline() || live.RenderAll() != replayed.RenderAll() {
		os.RemoveAll(dir)
		log.Fatal("DIVERGENCE between live and replayed analysis!")
	}
	fmt.Println("replay reproduces the live analysis bit-identically ✓")
	fmt.Println()
	fmt.Println(replayed.Headline())
}
