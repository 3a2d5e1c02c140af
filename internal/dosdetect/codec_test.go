package dosdetect

import (
	"bytes"
	"reflect"
	"testing"

	"quicsand/internal/ckpt"
	"quicsand/internal/wire"
)

func encodeDetector(d *Detector) []byte {
	w := &ckpt.Writer{}
	d.EncodeTo(w)
	return w.Bytes()
}

// TestCodecAnatomyOnQUICAttacksOnly: a QUIC detector's attacks
// round-trip their anatomy, a TCP/ICMP detector's write none and read
// back none, starts may step backwards (attacks are in finishing
// order), and each image re-encodes to its own bytes.
func TestCodecAnatomyOnQUICAttacksOnly(t *testing.T) {
	quic := NewDetector(VectorQUIC)
	quic.Attacks = []Attack{
		{Vector: VectorQUIC, Victim: 7, Start: 5000, End: 90_000, Packets: 40, MaxPPS: 1.5, Anatomy: &Anatomy{
			UniqueSCIDs: 30, SpoofedClients: 29, ClientPorts: 28, Version: wire.VersionDraft29, InitialShare: 0.25, HandshakeShare: 0.75}},
		{Vector: VectorQUIC, Victim: 8, Start: 2000, End: 95_000, Packets: 30, MaxPPS: 0.6, Anatomy: &Anatomy{}},
	}
	common := NewDetector(VectorCommon)
	common.DropExcluded = true
	common.Inspected = 3
	common.Attacks = []Attack{
		{Vector: VectorCommon, Victim: 9, Start: 3000, End: 99_000, Packets: 26, MaxPPS: 0.7},
		{Vector: VectorCommon, Victim: 2, Start: 1000, End: 62_000, Packets: 31, MaxPPS: 31.0 / 60},
	}
	for _, d := range []*Detector{quic, common} {
		img := encodeDetector(d)
		got := DecodeDetector(ckpt.NewReader(img))
		if got == nil {
			t.Fatalf("%v image does not decode", d.Vector)
		}
		if !reflect.DeepEqual(got, d) {
			t.Errorf("decoded %+v, want %+v", got, d)
		}
		if again := encodeDetector(got); !bytes.Equal(again, img) {
			t.Errorf("a decoded %v detector re-encodes to other bytes", d.Vector)
		}
	}
}

// TestCodecMaxPPSBitForBit: an attack writes MaxPPS as the per-minute
// count FromSession divided by 60, and decoding divides again to the
// same float for every count a session can hold.
func TestCodecMaxPPSBitForBit(t *testing.T) {
	d := NewDetector(VectorCommon)
	for m := 0; m < 1<<20; m += 1 + m/64 {
		d.Attacks = append(d.Attacks, Attack{Vector: VectorCommon, Victim: 1, Start: 1000, End: 62_000, Packets: m, MaxPPS: float64(m) / 60})
	}
	got := DecodeDetector(ckpt.NewReader(encodeDetector(d)))
	if got == nil || len(got.Attacks) != len(d.Attacks) {
		t.Fatal("image does not decode")
	}
	for i, a := range got.Attacks {
		if a.MaxPPS != d.Attacks[i].MaxPPS {
			t.Fatalf("per-minute count %d decodes to MaxPPS %v, want %v", a.Packets, a.MaxPPS, d.Attacks[i].MaxPPS)
		}
	}
}
