package dosdetect

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"quicsand/internal/ckpt"
	"quicsand/internal/wire"
)

func encodeDetector(d *Detector) []byte {
	w := &ckpt.Writer{}
	d.EncodeTo(w)
	return w.Bytes()
}

// TestCodecAnatomyOnQUICAttacksOnly: a QUIC attack round-trips its
// anatomy, a common attack writes zeros and reads back none, and the
// image re-encodes to its own bytes.
func TestCodecAnatomyOnQUICAttacksOnly(t *testing.T) {
	d := NewDetector(VectorQUIC)
	d.Attacks = []Attack{
		{Vector: VectorQUIC, Victim: 7, Start: 1000, End: 90_000, Packets: 40, MaxPPS: 1.5, Anatomy: &Anatomy{
			UniqueSCIDs: 30, SpoofedClients: 29, ClientPorts: 28, Version: wire.VersionDraft29, InitialShare: 0.25, HandshakeShare: 0.75}},
		{Vector: VectorQUIC, Victim: 8, Start: 2000, End: 95_000, Packets: 30, MaxPPS: 0.6, Anatomy: &Anatomy{}},
		{Vector: VectorCommon, Victim: 9, Start: 3000, End: 99_000, Packets: 26, MaxPPS: 0.7},
	}
	img := encodeDetector(d)
	got := DecodeDetector(ckpt.NewReader(img))
	if got == nil {
		t.Fatal("image does not decode")
	}
	if !reflect.DeepEqual(got.Attacks, d.Attacks) {
		t.Errorf("decoded attacks %+v, want %+v", got.Attacks, d.Attacks)
	}
	if got.Attacks[2].Anatomy != nil {
		t.Error("a decoded common attack has an anatomy")
	}
	if again := encodeDetector(got); !bytes.Equal(again, img) {
		t.Error("a decoded detector re-encodes to other bytes")
	}
}

// TestCodecRejectsCommonAttackAnatomy: every anatomy field a common
// attack writes non-zero — negative zero too, which would re-encode as
// +0 — fails the decode with a byte offset.
func TestCodecRejectsCommonAttackAnatomy(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, an := range []Anatomy{
		{UniqueSCIDs: 1}, {SpoofedClients: 2}, {ClientPorts: 3}, {Version: wire.VersionDraft29},
		{InitialShare: 0.5}, {HandshakeShare: negZero},
	} {
		d := NewDetector(VectorCommon)
		d.Attacks = []Attack{{Vector: VectorCommon, Victim: 9, Start: 3000, End: 99_000, Packets: 26, MaxPPS: 0.7, Anatomy: &an}}
		r := ckpt.NewReader(encodeDetector(d))
		if got := DecodeDetector(r); got != nil {
			t.Errorf("common attack with anatomy %+v decoded", an)
			continue
		}
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "carries a QUIC anatomy") || !strings.Contains(err.Error(), "offset 0x") {
			t.Errorf("anatomy %+v: error %v, want an offset-annotated anatomy rejection", an, err)
		}
	}
}
