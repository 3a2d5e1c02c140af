package quicsand

import (
	"testing"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// entrySizes streams cfg's month and returns the final image's session
// log bytes per logged session and its attack log's bytes per TCP/ICMP
// attack, with the counts they divide.
func entrySizes(t *testing.T, cfg StreamConfig) (perSession, perAttack float64, sessions, attacks int) {
	t.Helper()
	final, err := streamLive(cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, shards, _, err := decodeCheckpoint(final.Encode())
	if err != nil {
		t.Fatal(err)
	}
	logBytes, atkBytes := 0, 0
	for _, sh := range shards {
		logBytes += len(sh.sessLog.Bytes())
		sessions += int(sh.quicSz.Metrics.Emitted)
		atkBytes += len(sh.atkLog.Bytes())
		attacks += len(sh.commonDet.Attacks)
	}
	if sessions > 0 {
		perSession = float64(logBytes) / float64(sessions)
	}
	if attacks > 0 {
		perAttack = float64(atkBytes) / float64(attacks)
	}
	return perSession, perAttack, sessions, attacks
}

// TestCheckpointEntrySizes: a QCKP image carries answers. A logged
// session costs at most 48 B however large its anatomy sets were (a
// v1 entry wrote the sets: ≈ 575 B a flood session), and a TCP/ICMP
// attack at most 20 B (v1: 48 B, six of its fields pinned to zero).
// Every built-in streams at scale 0.02; paper-2021 must exercise both.
func TestCheckpointEntrySizes(t *testing.T) {
	for _, g := range goldenRuns {
		perSession, perAttack, sessions, attacks := entrySizes(t, StreamConfig{Config: goldenConfig(g.name, 0.02, nil, t)})
		t.Logf("%s: %d sessions logged at %.1f B, %d TCP/ICMP attacks at %.1f B", g.name, sessions, perSession, attacks, perAttack)
		if perSession > 48 {
			t.Errorf("%s: a logged session costs %.1f B, budget 48", g.name, perSession)
		}
		if perAttack > 20 {
			t.Errorf("%s: a TCP/ICMP attack costs %.1f B, budget 20", g.name, perAttack)
		}
		if g.name == "paper-2021" && (sessions < 100 || attacks < 1000) {
			t.Errorf("paper-2021 logged %d sessions and %d attacks: the budgets are not exercised", sessions, attacks)
		}
	}
}

// TestShardStateIgnoresAttacks: a streaming shard's encoded state holds
// no finished TCP/ICMP attack. Each round sends 200 TCP sources a
// 90-second burst that the thresholds call an attack, and a later probe
// past the timeout sweeps them into the detector; a tick after each
// round must find the attack log 200 entries longer and the state no
// longer than its counters' varints can widen.
func TestShardStateIgnoresAttacks(t *testing.T) {
	const victims = 200
	cfg := StreamConfig{Config: Config{Seed: 5, Scale: 0.0005, ResearchThin: 1 << 14, Workers: 1}}
	_, _, shards, err := planPipeline(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := shards[0]
	sh.logFinished()
	start := telescope.TS(telescope.MeasurementStart)
	first, probe := netmodel.MustAddr("198.18.0.0"), netmodel.MustAddr("198.19.0.1")
	tcp := func(ts telescope.Timestamp, src netmodel.Addr) *telescope.Packet {
		return &telescope.Packet{TS: ts, Src: src, Dst: netmodel.TelescopePrefix.Base,
			SrcPort: 80, DstPort: 40000, Proto: telescope.ProtoTCP, Size: 40}
	}
	var prevState, prevLog, packets int
	for round := 0; round < 3; round++ {
		t0 := start + telescope.Timestamp(round)*10*60_000
		for s := telescope.Timestamp(0); s < 90; s++ {
			for k := 0; k < victims; k++ {
				sh.process(tcp(t0+s*1000, first+netmodel.Addr(round*victims+k)))
				packets++
			}
		}
		sh.process(tcp(t0+7*60_000, probe))
		packets++
		f := sh.freeze(0, uint64(packets), false)
		state, log := len(f.image.state), len(f.image.attacks)
		t.Logf("round %d: %d TCP/ICMP sessions inspected, attack log %d B, state %d B", round, sh.commonDet.Inspected, log, state)
		if want := (round + 1) * victims; sh.commonSz.Metrics.Emitted < uint64(want) || len(sh.commonDet.Attacks) != 0 {
			t.Fatalf("round %d: %d TCP/ICMP sessions emitted, %d attacks held; want at least %d and 0",
				round, sh.commonSz.Metrics.Emitted, len(sh.commonDet.Attacks), want)
		}
		if log-prevLog < victims*5 {
			t.Fatalf("round %d: the attack log grew by %d B for %d attacks", round, log-prevLog, victims)
		}
		if round > 0 && state > prevState+8 {
			t.Errorf("round %d: the encoded state grew from %d to %d B as %d attacks were found", round, prevState, state, victims)
		}
		prevState, prevLog = state, log
	}
}
