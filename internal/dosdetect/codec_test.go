package dosdetect

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// logged logs attacks as a detector of vector vec finds them and returns
// its state's encoding and its log.
func logged(vec Vector, inspected int, attacks []Attack) (state, log []byte) {
	d := NewDetector(vec)
	d.Log = ckpt.NewWriter(nil)
	d.Inspected = inspected
	for i := range attacks {
		d.logAttack(attacks[i])
	}
	w := ckpt.NewWriter(nil)
	d.EncodeTo(w)
	return w.Bytes(), d.Log.Bytes()
}

// decoded reads a detector of vector vec back from its state and log.
func decoded(t *testing.T, vec Vector, state, log []byte) *Detector {
	t.Helper()
	d := NewDetector(vec)
	r := ckpt.NewReader(state)
	d.DecodeFrom(r)
	rl := ckpt.NewReader(log)
	d.Attacks = d.AppendLogged(d.Attacks, rl, d.Logged())
	if r.Err() != nil || r.Remaining() != 0 || rl.Err() != nil || rl.Remaining() != 0 {
		t.Fatalf("%v detector does not decode: state %v (%d left), log %v (%d left)", vec, r.Err(), r.Remaining(), rl.Err(), rl.Remaining())
	}
	return d
}

// TestCodecAnatomyOnQUICAttacksOnly: a QUIC detector's logged attacks
// round-trip their anatomy, a TCP/ICMP detector's write none and read
// back none, starts may step backwards (attacks are in finishing
// order), and a decoded detector that goes on logging onto a copy of
// its log writes what the original would have.
func TestCodecAnatomyOnQUICAttacksOnly(t *testing.T) {
	quic := []Attack{
		{Vector: VectorQUIC, Victim: 7, Start: 5000, End: 90_000, Packets: 40, MaxPPS: 1.5, Anatomy: &Anatomy{
			UniqueSCIDs: 30, SpoofedClients: 29, ClientPorts: 28, Version: wire.VersionDraft29, InitialShare: 0.25, HandshakeShare: 0.75}},
		{Vector: VectorQUIC, Victim: 8, Start: 2000, End: 95_000, Packets: 30, MaxPPS: 0.6, Anatomy: &Anatomy{}},
		{Vector: VectorQUIC, Victim: 3, Start: 4000, End: 70_000, Packets: 28, MaxPPS: 0.55, Anatomy: &Anatomy{UniqueSCIDs: 2}},
	}
	common := []Attack{
		{Vector: VectorCommon, Victim: 9, Start: 3000, End: 99_000, Packets: 26, MaxPPS: 0.7},
		{Vector: VectorCommon, Victim: 2, Start: 1000, End: 62_000, Packets: 31, MaxPPS: 31.0 / 60},
		{Vector: VectorCommon, Victim: 4, Start: 8000, End: 70_000, Packets: 27, MaxPPS: 1},
	}
	for _, tc := range []struct {
		vec     Vector
		attacks []Attack
	}{{VectorQUIC, quic}, {VectorCommon, common}} {
		state, log := logged(tc.vec, 3, tc.attacks)
		headState, headLog := logged(tc.vec, 3, tc.attacks[:2])
		if !bytes.HasPrefix(log, headLog) {
			t.Fatalf("%v: the log of three attacks does not extend the log of two", tc.vec)
		}
		d := decoded(t, tc.vec, headState, headLog)
		if d.Inspected != 3 || !reflect.DeepEqual(d.Attacks, tc.attacks[:2]) {
			t.Errorf("%v: decoded %d inspected, %+v; want 3 and %+v", tc.vec, d.Inspected, d.Attacks, tc.attacks[:2])
		}
		d.Log = ckpt.NewWriter(bytes.Clone(headLog))
		d.logAttack(tc.attacks[2])
		w := ckpt.NewWriter(nil)
		d.EncodeTo(w)
		if !bytes.Equal(w.Bytes(), state) || !bytes.Equal(d.Log.Bytes(), log) {
			t.Errorf("%v: a decoded detector logging on writes other bytes than the original", tc.vec)
		}
		if all := decoded(t, tc.vec, state, log); !reflect.DeepEqual(all.Attacks, tc.attacks) {
			t.Errorf("%v: decoded %+v, want %+v", tc.vec, all.Attacks, tc.attacks)
		}
	}
}

// TestCodecMaxPPSBitForBit: an attack writes MaxPPS as the per-minute
// count FromSession divided by 60, and decoding divides again to the
// same float for every count a session can hold.
func TestCodecMaxPPSBitForBit(t *testing.T) {
	var attacks []Attack
	for m := 0; m < 1<<20; m += 1 + m/64 {
		attacks = append(attacks, Attack{Vector: VectorCommon, Victim: 1, Start: 1000, End: 62_000, Packets: m, MaxPPS: float64(m) / 60})
	}
	state, log := logged(VectorCommon, len(attacks), attacks)
	got := decoded(t, VectorCommon, state, log)
	if len(got.Attacks) != len(attacks) {
		t.Fatalf("decoded %d attacks, want %d", len(got.Attacks), len(attacks))
	}
	for i, a := range got.Attacks {
		if a.MaxPPS != attacks[i].MaxPPS {
			t.Fatalf("per-minute count %d decodes to MaxPPS %v, want %v", a.Packets, a.MaxPPS, attacks[i].MaxPPS)
		}
	}
}

// TestOfferLogsInPlaceOfKeeping: a detector with a Log writes each
// attack it finds there and keeps none, and its log decodes to the
// attacks an unlogged detector offered the same sessions keeps.
func TestOfferLogsInPlaceOfKeeping(t *testing.T) {
	kept, logging := NewDetector(VectorCommon), NewDetector(VectorCommon)
	logging.Log = ckpt.NewWriter(nil)
	for _, d := range []*Detector{kept, logging} {
		d.DropExcluded = true
		for i, proto := range []telescope.Proto{telescope.ProtoTCP, telescope.ProtoICMP, telescope.ProtoTCP} {
			packets := 200
			if i == 2 {
				packets = 11 // below the thresholds
			}
			d.Offer(buildSessionOf(t, proto, netmodel.Addr(0x5db8d800+uint32(i)).String(), packets, 5*time.Minute, 40))
		}
	}
	if len(kept.Attacks) != 2 || len(logging.Attacks) != 0 || logging.Inspected != 3 {
		t.Fatalf("kept %d attacks; the logging detector keeps %d and inspected %d, want 0 and 3",
			len(kept.Attacks), len(logging.Attacks), logging.Inspected)
	}
	w := ckpt.NewWriter(nil)
	logging.EncodeTo(w)
	if got := decoded(t, VectorCommon, w.Bytes(), logging.Log.Bytes()); !reflect.DeepEqual(got.Attacks, kept.Attacks) {
		t.Errorf("the log decodes to %+v, want %+v", got.Attacks, kept.Attacks)
	}
}
