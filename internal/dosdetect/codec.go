package dosdetect

import (
	"math"
	"slices"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// Streaming-checkpoint support. A detector's configuration is its
// owner's, and its attacks are in its Log, written once each as it finds
// them; its state proper is two counts.

const maxDetectorItems = 1 << 26

// EncodeTo writes the detector's state: the sessions it inspected and
// the attacks it logged.
func (d *Detector) EncodeTo(w *ckpt.Writer) {
	w.U64(uint64(d.Inspected))
	w.U64(uint64(d.logged))
}

// DecodeFrom reads what EncodeTo wrote into d, a detector configured as
// the encoding one was. DecodeAttacks then reads its log.
func (d *Detector) DecodeFrom(r *ckpt.Reader) {
	d.Inspected = r.Int(maxDetectorItems)
	d.logged = r.Int(maxDetectorItems)
}

// DecodeAttacks reads the attacks d logged, as many as DecodeFrom
// counted into d, from a copy of its Log into Attacks, and takes the last
// one's start as the next logged attack's base, so that a resumed
// detector logging onto that copy goes on writing the bytes an
// uninterrupted one would. On malformed input it stops early with the
// reader's error set.
func (d *Detector) DecodeAttacks(r *ckpt.Reader) {
	d.Attacks = slices.Grow(d.Attacks, min(d.logged, 4096))
	for i := 0; i < d.logged && r.Err() == nil; i++ {
		a := decodeAttack(r, d.logStart, d.Vector)
		d.Attacks = append(d.Attacks, a)
		d.logStart = a.Start
	}
}

// logAttack appends a's encoding to the log.
func (d *Detector) logAttack(a Attack) {
	encodeAttack(d.Log, &a, d.logStart, d.Vector == VectorQUIC)
	d.logStart = a.Start
	d.logged++
}

// encodeAttack writes one attack as what it is: its victim, its start
// as a signed offset from the previous attack's (prev), its duration,
// its packets and its per-minute maximum, MaxPPS × 60, which FromSession
// divided by 60 and the decoder divides again, bit for bit. The vector
// is the detector's, and only a QUIC attack (anatomy) writes an anatomy.
func encodeAttack(w *ckpt.Writer, a *Attack, prev telescope.Timestamp, anatomy bool) {
	w.U64(uint64(a.Victim))
	w.I64(int64(a.Start - prev))
	w.U64(uint64(a.End - a.Start))
	w.U64(uint64(a.Packets))
	w.U64(uint64(math.Round(a.MaxPPS * 60)))
	if !anatomy {
		return
	}
	var an Anatomy
	if a.Anatomy != nil {
		an = *a.Anatomy
	}
	w.U64(uint64(an.UniqueSCIDs))
	w.U64(uint64(an.SpoofedClients))
	w.U64(uint64(an.ClientPorts))
	w.U64(uint64(an.Version))
	w.F64(an.InitialShare)
	w.F64(an.HandshakeShare)
}

// decodeAttack reads what encodeAttack wrote for a detector of vector
// vec, setting the reader's error on malformed input.
func decodeAttack(r *ckpt.Reader, prev telescope.Timestamp, vec Vector) Attack {
	a := Attack{Vector: vec}
	a.Victim = netmodel.Addr(r.U64())
	a.Start = prev + telescope.Timestamp(r.I64())
	a.End = a.Start + telescope.Timestamp(r.U64())
	a.Packets = r.Int(maxDetectorItems)
	a.MaxPPS = float64(r.Int(maxDetectorItems)) / 60
	if vec != VectorQUIC {
		return a
	}
	a.Anatomy = &Anatomy{
		UniqueSCIDs:    r.Int(maxDetectorItems),
		SpoofedClients: r.Int(maxDetectorItems),
		ClientPorts:    r.Int(maxDetectorItems),
		Version:        wire.Version(r.U64()),
		InitialShare:   r.F64(),
		HandshakeShare: r.F64(),
	}
	return a
}
