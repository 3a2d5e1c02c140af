package capture

import (
	"encoding/binary"
	"errors"
	"fmt"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// QSND, the native trace store. Layout, little endian:
//
//	file header:
//	  u32 magic "QSND" | u32 version (currently 2)
//	per record:
//	  i64 ts-millis | u32 src | u32 dst | u16 sport | u16 dport
//	  u8 proto | u8 flags | u16 size | u32 weight | u16 payloadLen
//	  | payload…
//
// Version 2 added the weight field: thinned research-scan records
// stand for Weight real packets, and dropping that on disk made a
// replayed month diverge from the live run. The format exists so
// experiments can checkpoint generated months and re-analyze without
// re-simulating.
//
// This file holds what QSND contributes to the shared reader and
// writer: its header parse and emit, its record validation and resync
// boundary, its routing address, its span decode and record encode.

const (
	qsndMagic   = 0x51534e44 // "QSND"
	qsndVersion = 2
	// qsndRecHdr is the fixed record header, payload length included.
	qsndRecHdr = 30
)

// ErrBadTrace reports a corrupt, truncated, or foreign QSND file.
// Reader errors wrap it and carry the byte offset of the bad record.
var ErrBadTrace = errors.New("telescope: bad trace file")

// isQSNDMagic reports whether b starts with the QSND store magic
// ("QSND" little endian).
func isQSNDMagic(b []byte) bool {
	return binary.LittleEndian.Uint32(b) == qsndMagic
}

// qsndHeader validates the 8-byte file header and consumes it.
func (r *reader) qsndHeader() error {
	fh, err := r.w.peek(8)
	if err != nil {
		return r.short(err, "file header", len(fh), 0, 8)
	}
	if magic := binary.LittleEndian.Uint32(fh[0:]); magic != qsndMagic {
		return r.corruptf(0, "magic %#08x (want %#08x)", magic, qsndMagic)
	}
	if v := binary.LittleEndian.Uint32(fh[4:]); v != qsndVersion {
		return r.corruptf(4, "unsupported trace version %d (want %d)", v, qsndVersion)
	}
	r.w.advance(8)
	return nil
}

// qsndBodyLen returns the payload length a record header claims and
// whether the header is valid: a known protocol, and a payload that
// fits the datagram size.
func qsndBodyLen(hdr []byte) (int, bool) {
	n := binary.LittleEndian.Uint16(hdr[28:])
	return int(n), hdr[20] <= byte(telescope.ProtoICMP) && n <= binary.LittleEndian.Uint16(hdr[22:])
}

// qsndCorrupt is the error for a record header at byte offset at that
// qsndBodyLen rejected.
func (r *reader) qsndCorrupt(hdr []byte, at uint64) error {
	if hdr[20] > byte(telescope.ProtoICMP) {
		return r.corruptf(at, "unknown protocol %d", hdr[20])
	}
	return r.corruptf(at, "payload length %d exceeds datagram size %d",
		binary.LittleEndian.Uint16(hdr[28:]), binary.LittleEndian.Uint16(hdr[22:]))
}

// qsndBoundary is the resync probe for QSND v2 framing: a candidate
// record header is plausible when its timestamp falls inside a sane
// epoch window (2^40..2^42 ms ≈ 2004–2109, which also rejects
// all-zero garbage), its protocol is known, and its payload length
// fits the claimed datagram size.
var qsndBoundary = boundary{
	hdrLen: qsndRecHdr,
	plausible: func(hdr []byte) (int, bool) {
		ts := binary.LittleEndian.Uint64(hdr[0:])
		if ts < 1<<40 || ts > 1<<42 {
			return 0, false
		}
		if hdr[20] > byte(telescope.ProtoICMP) {
			return 0, false
		}
		size := binary.LittleEndian.Uint16(hdr[22:])
		plen := binary.LittleEndian.Uint16(hdr[28:])
		if plen > size {
			return 0, false
		}
		return qsndRecHdr + int(plen), true
	},
}

// qsndRoute returns a framed record's source address.
func qsndRoute(span []byte) netmodel.Addr {
	return netmodel.Addr(binary.LittleEndian.Uint32(span[8:]))
}

// decodeQSND decodes a complete, validated QSND record span into p.
// p.Payload aliases the span (nil for payload-less records), so the
// span's owner decides the lifetime.
func decodeQSND(span []byte, p *telescope.Packet) {
	*p = telescope.Packet{
		TS:      telescope.Timestamp(binary.LittleEndian.Uint64(span[0:])),
		Src:     netmodel.Addr(binary.LittleEndian.Uint32(span[8:])),
		Dst:     netmodel.Addr(binary.LittleEndian.Uint32(span[12:])),
		SrcPort: binary.LittleEndian.Uint16(span[16:]),
		DstPort: binary.LittleEndian.Uint16(span[18:]),
		Proto:   telescope.Proto(span[20]),
		Flags:   span[21],
		Size:    binary.LittleEndian.Uint16(span[22:]),
		Weight:  binary.LittleEndian.Uint32(span[24:]),
	}
	if n := int(binary.LittleEndian.Uint16(span[28:])); n > 0 {
		p.Payload = span[qsndRecHdr : qsndRecHdr+n : qsndRecHdr+n]
	}
}

// qsndDecoder is decodeQSND behind the SpanDecoder interface. Every
// framed QSND span is a complete, validated record, so decode never
// drops.
type qsndDecoder struct{}

func (qsndDecoder) DecodeSpan(span []byte, p *telescope.Packet) bool {
	decodeQSND(span, p)
	return true
}

// appendQSNDHeader appends the file header.
func appendQSNDHeader(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, qsndMagic)
	return binary.LittleEndian.AppendUint32(b, qsndVersion)
}

// qsndRecord writes one record: the header from the writer's scratch,
// then the payload straight from the packet. It returns the bytes
// written.
func (w *writer) qsndRecord(p *telescope.Packet) (int, error) {
	if len(p.Payload) > 0xffff {
		return 0, fmt.Errorf("telescope: payload %d bytes at record %d, byte offset %d: %w",
			len(p.Payload), w.n, w.off, ErrBadTrace)
	}
	if len(p.Payload) > int(p.Size) {
		return 0, fmt.Errorf("telescope: payload %d bytes exceeds datagram size %d at record %d, byte offset %d: %w",
			len(p.Payload), p.Size, w.n, w.off, ErrBadTrace)
	}
	hdr := w.buf[:qsndRecHdr]
	binary.LittleEndian.PutUint64(hdr[0:], uint64(p.TS))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(p.Src))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(p.Dst))
	binary.LittleEndian.PutUint16(hdr[16:], p.SrcPort)
	binary.LittleEndian.PutUint16(hdr[18:], p.DstPort)
	hdr[20] = byte(p.Proto)
	hdr[21] = p.Flags
	binary.LittleEndian.PutUint16(hdr[22:], p.Size)
	binary.LittleEndian.PutUint32(hdr[24:], p.Weight)
	binary.LittleEndian.PutUint16(hdr[28:], uint16(len(p.Payload)))
	if _, err := w.w.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := w.w.Write(p.Payload); err != nil {
		return len(hdr), err
	}
	return len(hdr) + len(p.Payload), nil
}
