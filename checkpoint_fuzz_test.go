package quicsand

import (
	"os"
	"strings"
	"testing"

	"quicsand/internal/faultinject"
)

// fuzzCheckpointImages builds real checkpoint images to seed the
// corpus: an empty stream's final checkpoint and a full tiny-scale
// month, both at two shards.
func fuzzCheckpointImages(f *testing.F) [][]byte {
	f.Helper()
	cfg := StreamConfig{Config: Config{Seed: 5, Scale: 0.0005, ResearchThin: 1 << 14, Workers: 2}}
	s, err := NewStreamer(cfg)
	if err != nil {
		f.Fatal(err)
	}
	empty := s.Close().Encode()
	final, err := streamLive(cfg, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{empty, final.Encode()}
}

// FuzzCheckpoint pins the checkpoint decoder's total behavior on
// arbitrary bytes, the way FuzzQSNDReader pins the trace reader's: it
// must terminate and never panic; every rejection must carry the
// byte-offset annotation (ckpt.Error); and anything it does accept
// must be self-consistent — a full shard set whose packet counts sum
// to the header position. Seeds are real encoded images (the checked-in
// mid-stream fixture among them, whose open sessions carry their sets),
// the last QCKP v1 and v2 images, plus the fault-injection damage shapes a
// crashed daemon can leave behind (torn tail, bit flip, garbage splice).
func FuzzCheckpoint(f *testing.F) {
	images := fuzzCheckpointImages(f)
	for _, img := range images {
		f.Add(img)
	}
	full := images[1]
	for _, path := range []string{qckpV1Image, qckpV2Image, qckpGoldenImage} {
		img, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	// Damage shapes: torn tail, a flipped byte inside shard state, a
	// garbage splice, foreign magic, a bumped version, trailing junk.
	f.Add(faultinject.Apply(full, faultinject.Fault{Kind: faultinject.Truncate, Offset: uint64(len(full)) - 7}))
	f.Add(faultinject.Apply(full, faultinject.Fault{Kind: faultinject.BitFlip, Offset: uint64(len(full)) / 2, XorMask: 0xFF}))
	f.Add(faultinject.Apply(full, faultinject.Fault{Kind: faultinject.Garbage, Offset: 32, Len: 24, Seed: 9}))
	bad := append([]byte(nil), full...)
	bad[0] = 'X'
	f.Add(bad)
	ver := append([]byte(nil), full...)
	ver[4] = 0xFF
	f.Add(ver)
	f.Add(append(append([]byte(nil), full...), 0xAA, 0xBB))
	f.Add([]byte{})
	f.Add([]byte("QCKP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, shards, counts, err := decodeCheckpoint(data)
		if err != nil {
			if !strings.Contains(err.Error(), "offset 0x") {
				t.Fatalf("malformed checkpoint rejected without a byte offset: %v", err)
			}
			return
		}
		if hdr.workers < 1 || len(shards) != hdr.workers || len(counts) != hdr.workers {
			t.Fatalf("accepted checkpoint with %d shards, %d counts for %d workers", len(shards), len(counts), hdr.workers)
		}
		var total uint64
		for i, d := range shards {
			if d == nil || d.tel == nil || d.quicSz == nil || d.commonSz == nil ||
				d.sweep == nil || d.commonDet == nil || d.hourlySource == nil || d.hourlyType == nil {
				t.Fatalf("accepted checkpoint with incomplete shard %d state", i)
			}
			total += counts[i]
		}
		if total != hdr.position {
			t.Fatalf("accepted checkpoint whose shard counts (%d) miss the header position (%d)", total, hdr.position)
		}
	})
}
