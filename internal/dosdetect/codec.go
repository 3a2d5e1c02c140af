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

// EncodeTo writes the detector state: thresholds, vector, inspection
// count, then the attacks in append order (canonical order is
// recomputed by Sorted at read time as in a live run). Excluded
// sessions are not checkpoint state: the one detector an image carries,
// a shard's TCP/ICMP detector, drops them (DropExcluded).
func (d *Detector) EncodeTo(w *ckpt.Writer) {
	w.U64(uint64(d.Thresholds.MinPackets))
	w.F64(d.Thresholds.MinDuration)
	w.F64(d.Thresholds.MinMaxPPS)
	w.U64(uint64(d.Vector))
	w.Bool(d.DropExcluded)
	w.U64(uint64(d.Inspected))
	w.U64(uint64(len(d.Attacks)))
	var prev telescope.Timestamp
	for i := range d.Attacks {
		a := &d.Attacks[i]
		encodeAttack(w, a, prev, d.Vector == VectorQUIC)
		prev = a.Start
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
	if r.Err() == nil && n > 0 {
		d.Attacks = make([]Attack, 0, min(n, 4096))
	}
	var prev telescope.Timestamp
	for i := 0; i < n && r.Err() == nil; i++ {
		a := decodeAttack(r, prev, d.Vector)
		d.Attacks = append(d.Attacks, a)
		prev = a.Start
	}
	if r.Err() != nil {
		return nil
	}
	return d
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
