// Package telescope implements the /9 network-telescope substrate: the
// packet record every pipeline stage consumes, the capture sink with its
// hourly counters, and their checkpoint codec. Stored captures (the
// QSND store and pcap) are read and written by internal/capture.
package telescope

import (
	"time"

	"quicsand/internal/netmodel"
)

// Proto is the transport protocol of a captured packet.
type Proto uint8

// Captured protocols. The paper's "common protocols" baseline is
// TCP+ICMP backscatter.
const (
	ProtoUDP Proto = iota
	ProtoTCP
	ProtoICMP
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case ProtoUDP:
		return "UDP"
	case ProtoTCP:
		return "TCP"
	case ProtoICMP:
		return "ICMP"
	}
	return "Proto?"
}

// TCP flag bits carried in Packet.Flags for TCP records.
const (
	FlagSYN byte = 1 << 1
	FlagACK byte = 1 << 4
	FlagRST byte = 1 << 2
)

// MeasurementStart and MeasurementEnd bound the paper's capture
// period: April 1–30, 2021 (UTC).
var (
	MeasurementStart = time.Date(2021, time.April, 1, 0, 0, 0, 0, time.UTC)
	MeasurementEnd   = time.Date(2021, time.May, 1, 0, 0, 0, 0, time.UTC)
)

// Timestamp is milliseconds since the Unix epoch (UTC). Millisecond
// resolution suffices for max-pps over 1-minute slots while keeping
// records compact enough to stream 92 M of them.
type Timestamp int64

// TS converts a time.Time.
func TS(t time.Time) Timestamp { return Timestamp(t.UnixMilli()) }

// measurementStartMilli is MeasurementStart on the Timestamp scale,
// computed once: Hour runs per captured packet.
var measurementStartMilli = MeasurementStart.UnixMilli()

// Hour returns the hour index since MeasurementStart, the Figure 2/3
// binning unit. It floors, so timestamps before the start map to
// negative hours (−1 for the hour leading up to it), never to bin 0.
func (ts Timestamp) Hour() int {
	const msPerHour = 3_600_000
	ms := int64(ts) - measurementStartMilli
	h := ms / msPerHour
	if ms < h*msPerHour {
		h--
	}
	return int(h)
}

// HoursInMeasurement is the number of hourly bins in April 2021.
const HoursInMeasurement = 30 * 24

// Packet is one captured datagram. For QUIC traffic, Payload holds the
// full UDP payload (real wire bytes the dissector parses); for the
// high-volume research-scan and TCP/ICMP records only the metadata is
// kept, exactly like a truncated-snaplen pcap.
type Packet struct {
	TS      Timestamp
	Src     netmodel.Addr
	Dst     netmodel.Addr
	SrcPort uint16
	DstPort uint16
	Proto   Proto
	Flags   byte   // TCP flags; ICMP type for ICMP
	Size    uint16 // original datagram size on the wire
	Payload []byte // UDP payload (QUIC bytes) or nil

	// Weight is the number of real packets this record stands for.
	// Thinned generators (research scans at high volume) emit one
	// record per N packets with Weight N; zero means 1. Only count
	// views honor weights — session analyses never see thinned
	// streams.
	Weight uint32
}

// EffectiveWeight returns Weight, treating zero as 1.
func (p *Packet) EffectiveWeight() uint64 {
	if p.Weight == 0 {
		return 1
	}
	return uint64(p.Weight)
}

// PortQUIC is the UDP port whose traffic the paper classifies as QUIC.
const PortQUIC = 443

// IsRequest reports whether the packet is a QUIC request (scan):
// destination port UDP/443.
func (p *Packet) IsRequest() bool {
	return p.Proto == ProtoUDP && p.DstPort == PortQUIC && p.SrcPort != PortQUIC
}

// IsResponse reports whether the packet is a QUIC response
// (backscatter): source port UDP/443.
func (p *Packet) IsResponse() bool {
	return p.Proto == ProtoUDP && p.SrcPort == PortQUIC && p.DstPort != PortQUIC
}

// IsQUICCandidate reports whether port-based classification selects
// this packet as QUIC at all (either direction, not both —
// the paper found the both-ports set empty).
func (p *Packet) IsQUICCandidate() bool {
	return p.IsRequest() || p.IsResponse()
}
