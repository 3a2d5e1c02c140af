package quicsand

import (
	"strings"
	"testing"

	"quicsand/internal/ckpt"
	"quicsand/internal/dosdetect"
	"quicsand/internal/faultinject"
)

// TestDecodeShardPinsNonQUIC: a shard block's non-QUIC slot is a copy
// of its dissector's parse failures, and a block whose slot differs
// from them is rejected.
func TestDecodeShardPinsNonQUIC(t *testing.T) {
	sh := newPipelineShard()
	sh.dis.Metrics.ParseFailures = 5
	var w ckpt.Writer
	sh.encodeState(&w) // ends with the slot and the empty log's length
	w.U64(0)           // the shard's packet count
	block := w.Bytes()
	r := ckpt.NewReader(block)
	if dec, _ := decodeShard(r, block); r.Err() != nil || dec.dis.Metrics.ParseFailures != 5 {
		t.Fatalf("decoding a shard block: %v", r.Err())
	}
	block[len(block)-3] = 6
	r = ckpt.NewReader(block)
	decodeShard(r, block)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "shard counts 6 non-QUIC datagrams, its dissector 5 parse failures") {
		t.Errorf("a non-QUIC slot off its parse failures decoded with error %v", err)
	}
}

// fuzzCheckpointImages builds real checkpoint images to seed the
// corpus: an empty stream's final checkpoint and a full tiny-scale
// month, both at two shards.
func fuzzCheckpointImages(f *testing.F) (cfg StreamConfig, images [][]byte) {
	f.Helper()
	cfg = StreamConfig{Config: Config{Seed: 5, Scale: 0.0005, ResearchThin: 1 << 14, Workers: 2}}
	s, err := NewStreamer(cfg)
	if err != nil {
		f.Fatal(err)
	}
	empty := s.Close().Encode()
	final, err := streamLive(cfg, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	return cfg, [][]byte{empty, final.Encode()}
}

// anatomyOnCommonAttack re-encodes a full image with one more TCP/ICMP
// attack in its first shard, one that carries a QUIC anatomy: only a
// QUIC attack has one, so the decoder must reject the image.
func anatomyOnCommonAttack(f *testing.F, cfg StreamConfig, img []byte) []byte {
	f.Helper()
	hdr, shards, counts, err := decodeCheckpoint(img)
	if err != nil {
		f.Fatal(err)
	}
	det := shards[0].commonDet
	det.Attacks = append(det.Attacks, dosdetect.Attack{Vector: dosdetect.VectorCommon, Victim: 1, Start: 1000, End: 90_000,
		Packets: 30, MaxPPS: 1, Anatomy: &dosdetect.Anatomy{UniqueSCIDs: 3}})
	c := &StreamCheckpoint{cfg: cfg, position: hdr.position, images: make([]shardImage, len(shards))}
	for i, sh := range shards {
		c.images[i] = sh.freeze(i, counts[i], false).image
	}
	bad := c.Encode()
	if _, _, _, err := decodeCheckpoint(bad); err == nil || !strings.Contains(err.Error(), "carries a QUIC anatomy") {
		f.Fatalf("an image with an anatomy on a TCP/ICMP attack decoded with error %v", err)
	}
	return bad
}

// FuzzCheckpoint pins the checkpoint decoder's total behavior on
// arbitrary bytes, the way FuzzQSNDReader pins the trace reader's: it
// must terminate and never panic; every rejection must carry the
// byte-offset annotation (ckpt.Error); and anything it does accept
// must be self-consistent — a full shard set whose packet counts sum
// to the header position. Seeds are real encoded images, one of them
// re-encoded with a QUIC anatomy on a TCP/ICMP attack, plus the
// fault-injection damage shapes a crashed daemon can leave behind
// (torn tail, bit flip, garbage splice).
func FuzzCheckpoint(f *testing.F) {
	cfg, images := fuzzCheckpointImages(f)
	for _, img := range images {
		f.Add(img)
	}
	full := images[1]
	f.Add(anatomyOnCommonAttack(f, cfg, full))
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
