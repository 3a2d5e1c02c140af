package dosdetect

import (
	"math"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// Streaming-checkpoint support: the codec serializes the detector at
// full fidelity, and a checkpoint keeps nothing else of it.

const maxDetectorItems = 1 << 26

// EncodeTo writes the detector state. Attack lists keep their append
// order (canonical order is recomputed by Sorted at read time as in a
// live run). Excluded sessions are not checkpoint state: the one
// detector an image carries, a shard's TCP/ICMP detector, drops them
// (DropExcluded), and a finished session no longer has the sets the
// session format writes. The format's list stays, written empty; a
// decoder rejects any other.
func (d *Detector) EncodeTo(w *ckpt.Writer) {
	w.U64(uint64(d.Thresholds.MinPackets))
	w.F64(d.Thresholds.MinDuration)
	w.F64(d.Thresholds.MinMaxPPS)
	w.U64(uint64(d.Vector))
	w.Bool(d.DropExcluded)
	w.U64(uint64(d.Inspected))
	w.U64(uint64(len(d.Attacks)))
	for i := range d.Attacks {
		encodeAttack(w, &d.Attacks[i])
	}
	w.U64(0) // excluded sessions
}

// DecodeDetector reads a detector encoded by EncodeTo. Returns nil on
// malformed input (reader error set).
func DecodeDetector(r *ckpt.Reader) *Detector {
	d := &Detector{}
	d.Thresholds.MinPackets = r.Int(maxDetectorItems)
	d.Thresholds.MinDuration = r.F64()
	d.Thresholds.MinMaxPPS = r.F64()
	d.Vector = Vector(r.Int(1))
	d.DropExcluded = r.Bool()
	d.Inspected = r.Int(maxDetectorItems)
	n := r.Int(maxDetectorItems)
	for i := 0; i < n && r.Err() == nil; i++ {
		d.Attacks = append(d.Attacks, decodeAttack(r))
	}
	if n := r.U64(); n != 0 {
		r.Errorf("detector image lists %d excluded sessions, want none", n)
	}
	if r.Err() != nil {
		return nil
	}
	return d
}

// encodeAttack writes one attack. The format predates the Anatomy
// pointer: every attack carries the six anatomy fields, and a common
// attack writes them as zeros.
func encodeAttack(w *ckpt.Writer, a *Attack) {
	w.U64(uint64(a.Vector))
	w.U64(uint64(a.Victim))
	w.I64(int64(a.Start))
	w.I64(int64(a.End))
	w.U64(uint64(a.Packets))
	w.F64(a.MaxPPS)
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

// decodeAttack reads what encodeAttack wrote, setting the reader's
// error on malformed input. A QUIC attack gets its anatomy back; a
// common attack must have written zeros (the float fields bit for bit,
// so that an accepted image re-encodes to its own bytes).
func decodeAttack(r *ckpt.Reader) Attack {
	var a Attack
	var an Anatomy
	a.Vector = Vector(r.Int(1))
	a.Victim = netmodel.Addr(r.U64())
	a.Start = telescope.Timestamp(r.I64())
	a.End = telescope.Timestamp(r.I64())
	a.Packets = r.Int(maxDetectorItems)
	a.MaxPPS = r.F64()
	an.UniqueSCIDs = r.Int(maxDetectorItems)
	an.SpoofedClients = r.Int(maxDetectorItems)
	an.ClientPorts = r.Int(maxDetectorItems)
	an.Version = wire.Version(r.U64())
	an.InitialShare = r.F64()
	an.HandshakeShare = r.F64()
	switch {
	case a.Vector == VectorQUIC:
		a.Anatomy = &an
	case an != Anatomy{} || math.Signbit(an.InitialShare) || math.Signbit(an.HandshakeShare):
		r.Errorf("%v attack on %v carries a QUIC anatomy", a.Vector, a.Victim)
	}
	return a
}
