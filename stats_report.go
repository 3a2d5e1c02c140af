package quicsand

import (
	"fmt"
	"strings"

	"quicsand/internal/telemetry"
)

// StatsReport renders the full observability view of a run: the
// engine's per-stage table, the per-shard packet balance (so manifests
// and operators can attribute skew to specific shards) and the merged
// telemetry counter block, whose ingest line is a replay's provenance.
// This is the `-fig stats` view and the payload behind `-stats`.
func (a *Analysis) StatsReport() string {
	var b strings.Builder
	if a.Pipeline != nil {
		b.WriteString(a.Pipeline.String())
	}
	if t := a.Telemetry; t != nil {
		if len(t.ShardPackets) > 1 {
			fmt.Fprintf(&b, "shard balance (skew %.2f):\n", t.Skew())
			for i, n := range t.ShardPackets {
				fmt.Fprintf(&b, "  shard %-3d %12d packets\n", i, n)
			}
		}
		b.WriteString(t.Text())
	}
	if a.Flight != nil {
		b.WriteString(a.Flight.StageTable(10))
	}
	return b.String()
}

// Manifest assembles the machine-readable run record `-manifest FILE`
// writes: the invoked command, the reproducibility-relevant config, the
// stage timings and the full telemetry snapshot.
func (a *Analysis) Manifest(command string) *telemetry.Manifest {
	m := &telemetry.Manifest{
		Command: command,
		Config: map[string]any{
			"seed":          a.Config.Seed,
			"scale":         a.Config.Scale,
			"research_thin": a.Config.ResearchThin,
			"skip_research": a.Config.SkipResearch,
			"workers":       a.Config.Workers,
			"scenario":      scenarioName(a.Config),
		},
	}
	if p := a.Pipeline; p != nil {
		m.Workers = p.Workers
		m.WallNS = p.Wall.Nanoseconds()
		m.PacketsPerSec = p.Throughput()
		m.Stages = p.StageTimings()
	}
	if t := a.Telemetry; t != nil {
		m.ShardPackets = t.ShardPackets
		m.ShardSkew = t.Skew()
		m.Telemetry = t
	}
	return m
}

func scenarioName(cfg Config) string {
	if cfg.Scenario != nil {
		return cfg.Scenario.Name
	}
	return ""
}
