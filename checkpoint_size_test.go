package quicsand

import (
	"testing"

	"quicsand/internal/ckpt"
)

// entrySizes streams cfg's month and returns the final image's session
// log bytes per logged session and its TCP/ICMP attack list's bytes per
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
		full, empty := ckpt.NewWriter(nil), ckpt.NewWriter(nil)
		sh.commonDet.EncodeTo(full)
		bare := *sh.commonDet
		bare.Attacks = nil
		bare.EncodeTo(empty)
		atkBytes += len(full.Bytes()) - len(empty.Bytes())
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

// TestCheckpointEntrySizes: a QCKP v2 image carries answers. A logged
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
