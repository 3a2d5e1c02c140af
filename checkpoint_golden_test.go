package quicsand

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The QCKP format fixtures: one mid-stream flood checkpoint in the
// current format (QCKP v3, in which each session and TCP/ICMP attack is
// logged once, as its answers, and no slot holds configuration or an
// entry per source ever seen), checked in with the headline it reduces
// to, and the same checkpoint as the last v1 and v2 builds wrote it.
// Every later build must resume the v3 image to the same state and
// re-encode it byte for byte — or reject it with a version error, never
// misread it — and must reject the older images with that version
// error: no command resumes a checkpoint, so there is no old reader to
// keep.
//
// Regenerate only for an intentional format change (with a version
// bump, keeping the old image as a rejected fixture):
// go test -run TestCheckpointGoldenImage -update
const (
	qckpGoldenImage    = "testdata/qckp/handshake-flood-qfam.w2.qckp"
	qckpV1Image        = "testdata/qckp/handshake-flood-qfam.w2.v1.qckp"
	qckpV2Image        = "testdata/qckp/handshake-flood-qfam.w2.v2.qckp"
	qckpGoldenHeadline = "testdata/qckp/handshake-flood-qfam.w2.headline.json"
)

// qckpGoldenConfig is the run the fixture was taken from: the flood
// built-in without research scanners at two shards. The identity only
// matters when regenerating — a resume generates no packet.
func qckpGoldenConfig(t *testing.T) StreamConfig {
	cfg := goldenConfig("handshake-flood-qfam", 0.02, goldenIdentity(t), t)
	cfg.SkipResearch = true
	cfg.Workers = 2
	return StreamConfig{Config: cfg}
}

func TestCheckpointGoldenImage(t *testing.T) {
	cfg := qckpGoldenConfig(t)
	if *update {
		// Freeze halfway through the month, so the image carries active
		// sessions next to emitted ones.
		whole, err := streamLive(cfg, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		var mid *StreamCheckpoint
		if _, err := streamLive(cfg, whole.Position()/2, func(c *StreamCheckpoint) {
			if mid == nil {
				mid = c
			}
		}); err != nil {
			t.Fatal(err)
		}
		_, shards, _, err := decodeCheckpoint(mid.Encode())
		if err != nil {
			t.Fatal(err)
		}
		active := 0
		for _, sh := range shards {
			active += sh.quicSz.ActiveSessions()
		}
		if active == 0 {
			t.Fatal("mid-stream checkpoint holds no active session; pick another position")
		}
		if err := os.MkdirAll(filepath.Dir(qckpGoldenImage), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qckpGoldenImage, mid.Encode(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qckpGoldenHeadline, []byte(mid.Analysis().HeadlineJSON()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s at position %d (%d active sessions)", qckpGoldenImage, mid.Position(), active)
	}

	image, err := os.ReadFile(qckpGoldenImage)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestCheckpointGoldenImage -update` to create it)", err)
	}
	headline, err := os.ReadFile(qckpGoldenHeadline)
	if err != nil {
		t.Fatal(err)
	}

	s, err := ResumeStreamer(cfg, image)
	if err != nil {
		t.Fatalf("checked-in QCKP v%d image no longer resumes: %v", checkpointVersion, err)
	}
	final := s.Close()
	if re := final.Encode(); !bytes.Equal(re, image) {
		t.Errorf("resumed image re-encodes to %d bytes that differ from the %d checked in", len(re), len(image))
	}
	if got := final.Analysis().HeadlineJSON(); got != string(headline) {
		t.Errorf("resumed image reduces to a different headline:\n--- stored ---\n%s--- got ---\n%s", headline, got)
	}

	// The version varint is the byte after the magic. A build that does
	// not know the version must say so, with the offset it stopped at.
	bumped := append([]byte(nil), image...)
	bumped[len(checkpointMagic)] = checkpointVersion + 1
	_, err = ResumeStreamer(cfg, bumped)
	if err == nil {
		t.Fatal("image with a bumped version resumed")
	}
	for _, want := range []string{fmt.Sprintf("unsupported checkpoint version %d (want %d)", checkpointVersion+1, checkpointVersion), "offset 0x5"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version rejection %q does not say %q", err, want)
		}
	}
}

// TestCheckpointV1Rejected: the last QCKP v1 and v2 images, the same
// flood checkpoint as the current fixture, are refused with the version
// error naming their version and its offset, never decoded as the
// current one.
func TestCheckpointV1Rejected(t *testing.T) {
	for v, path := range map[int]string{1: qckpV1Image, 2: qckpV2Image} {
		image, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ResumeStreamer(qckpGoldenConfig(t), image)
		if err == nil {
			t.Fatalf("a QCKP v%d image resumed", v)
		}
		for _, want := range []string{fmt.Sprintf("unsupported checkpoint version %d (want %d)", v, checkpointVersion), "offset 0x5"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("v%d rejection %q does not say %q", v, err, want)
			}
		}
	}
}
