package dosdetect

import (
	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// Streaming-checkpoint support: the codec serializes the detector at
// full fidelity, and a checkpoint keeps nothing else of it.

const maxDetectorItems = 1 << 26

// EncodeTo writes the detector state. Excluded sessions ride the
// sessions codec; attack lists keep their append order (canonical
// order is recomputed by Sorted at read time as in a live run).
func (d *Detector) EncodeTo(w *ckpt.Writer) {
	w.U64(uint64(d.Thresholds.MinPackets))
	w.F64(d.Thresholds.MinDuration)
	w.F64(d.Thresholds.MinMaxPPS)
	w.U64(uint64(d.Vector))
	w.Bool(d.DropExcluded)
	w.U64(uint64(d.Inspected))
	w.U64(uint64(len(d.Attacks)))
	for _, a := range d.Attacks {
		encodeAttack(w, a)
	}
	w.U64(uint64(len(d.Excluded)))
	for _, s := range d.Excluded {
		sessions.EncodeSession(w, s)
	}
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
		a := decodeAttack(r)
		if a == nil {
			return nil
		}
		d.Attacks = append(d.Attacks, a)
	}
	n = r.Int(maxDetectorItems)
	for i := 0; i < n && r.Err() == nil; i++ {
		s := sessions.DecodeSession(r)
		if s == nil {
			return nil
		}
		d.Excluded = append(d.Excluded, s)
	}
	if r.Err() != nil {
		return nil
	}
	return d
}

func encodeAttack(w *ckpt.Writer, a *Attack) {
	w.U64(uint64(a.Vector))
	w.U64(uint64(a.Victim))
	w.I64(int64(a.Start))
	w.I64(int64(a.End))
	w.U64(uint64(a.Packets))
	w.F64(a.MaxPPS)
	w.U64(uint64(a.UniqueSCIDs))
	w.U64(uint64(a.SpoofedClients))
	w.U64(uint64(a.ClientPorts))
	w.U64(uint64(a.Version))
	w.F64(a.InitialShare)
	w.F64(a.HandshakeShare)
}

func decodeAttack(r *ckpt.Reader) *Attack {
	a := &Attack{}
	a.Vector = Vector(r.Int(1))
	a.Victim = netmodel.Addr(r.U64())
	a.Start = telescope.Timestamp(r.I64())
	a.End = telescope.Timestamp(r.I64())
	a.Packets = r.Int(maxDetectorItems)
	a.MaxPPS = r.F64()
	a.UniqueSCIDs = r.Int(maxDetectorItems)
	a.SpoofedClients = r.Int(maxDetectorItems)
	a.ClientPorts = r.Int(maxDetectorItems)
	a.Version = wire.Version(r.U64())
	a.InitialShare = r.F64()
	a.HandshakeShare = r.F64()
	if r.Err() != nil {
		return nil
	}
	return a
}
