package capture

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// Classic libpcap file format (the pre-pcapng container every capture
// tool still reads and writes). Global header, 24 bytes:
//
//	u32 magic | u16 major | u16 minor | i32 thiszone | u32 sigfigs
//	u32 snaplen | u32 network (link type)
//
// then per record a 16-byte header (ts_sec, ts_subsec, incl_len,
// orig_len) followed by incl_len bytes of link-layer frame. The magic
// doubles as a byte-order and timestamp-resolution marker:
// 0xA1B2C3D4 is microseconds, 0xA1B23C4D nanoseconds, each read in
// whichever byte order makes it match.
//
// This file holds what pcap contributes to the shared reader and
// writer: its header parse and emit, its record validation and resync
// boundary, its routing address, its span decode and record encode.

// Pcap magics in file byte order as this package writes them.
const (
	pcapMagicUsec = 0xA1B2C3D4
	pcapMagicNsec = 0xA1B23C4D
	// pcapSnaplen is the declared capture length (tcpdump's -s0
	// default): roomy enough that a maximum QSND record — 65535
	// payload bytes plus encapsulation and trailer — always yields
	// incl_len ≤ snaplen, keeping strict readers happy.
	pcapSnaplen = 262144
	// pcapRecHdr is the per-record header: ts_sec, ts_subsec, incl_len,
	// orig_len.
	pcapRecHdr = 16
)

// Link types the reader decapsulates (tcpdump LINKTYPE_* values).
const (
	LinkEthernet = 1   // 14-byte MAC header
	LinkRawIP    = 101 // frame starts at the IP header
	LinkLinuxSLL = 113 // 16-byte Linux cooked capture header
)

// ErrBadPcap reports a corrupt or unsupported pcap stream. Reader
// errors wrap it and carry the byte offset of the bad region.
var ErrBadPcap = errors.New("capture: bad pcap file")

// trailerLen is the size of the telescope metadata trailer the writer
// appends after the IP datagram inside each Ethernet frame:
//
//	"QSXT" magic | u16 size | u8 flags | u8 zero | u32 weight  (LE)
//
// Standard tools treat bytes past the IP total length as link-layer
// padding, so the frames stay fully Wireshark/tcpdump-clean while the
// fields pcap cannot express (thinning weight, claimed original
// datagram size) survive a round trip bit-exactly. The reader accepts
// frames with or without the trailer, so foreign captures ingest too.
const trailerLen = 12

var trailerMagic = [4]byte{'Q', 'S', 'X', 'T'}

// maxFrame bounds a record's captured length during parsing so a
// corrupt length field cannot drive a giant allocation.
const maxFrame = 1 << 20

// isPcapMagic reports whether the four bytes are any pcap magic in
// either byte order.
func isPcapMagic(m []byte) bool {
	le := binary.LittleEndian.Uint32(m)
	be := binary.BigEndian.Uint32(m)
	return le == pcapMagicUsec || le == pcapMagicNsec ||
		be == pcapMagicUsec || be == pcapMagicNsec
}

// ---------------------------------------------------------------------------
// Writer pieces: exported months are a classic pcap stream
// (microsecond timestamps, little endian, Ethernet link type) with
// real IPv4/UDP/TCP/ICMP encapsulation and valid IP checksums.

// Synthetic MAC addresses for exported frames (locally administered).
var (
	macDst = [6]byte{0x02, 'Q', 'S', 'D', 0x00, 0x02}
	macSrc = [6]byte{0x02, 'Q', 'S', 'D', 0x00, 0x01}
)

// recHdrZero reserves the in-frame record header slot.
var recHdrZero [pcapRecHdr]byte

// onesSum accumulates the RFC 1071 16-bit ones-complement sum of b
// (odd trailing byte padded with zero) into sum, unfolded.
func onesSum(b []byte, sum uint32) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

// foldChecksum folds and complements a ones-complement sum.
func foldChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// ipChecksum is the RFC 1071 checksum over the IP header.
func ipChecksum(b []byte) uint16 {
	return foldChecksum(onesSum(b, 0))
}

// appendPcapHeader appends the 24-byte global header.
func appendPcapHeader(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, pcapMagicUsec)
	b = binary.LittleEndian.AppendUint16(b, 2) // version 2.4
	b = binary.LittleEndian.AppendUint16(b, 4)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // thiszone, sigfigs
	b = binary.LittleEndian.AppendUint32(b, pcapSnaplen)
	return binary.LittleEndian.AppendUint32(b, LinkEthernet)
}

// pcapRecord writes one packet as a full Ethernet frame record, built
// in the writer's scratch so one buffered write covers it. It returns
// the bytes written.
func (w *writer) pcapRecord(p *telescope.Packet) (int, error) {
	if p.TS < 0 {
		return 0, fmt.Errorf("capture: timestamp %d before the epoch: %w", p.TS, ErrBadPcap)
	}
	sec := uint64(p.TS) / 1000
	if sec > 0xffffffff {
		return 0, fmt.Errorf("capture: timestamp %d beyond pcap range: %w", p.TS, ErrBadPcap)
	}
	usec := uint32(uint64(p.TS)%1000) * 1000

	var tpHdr int
	var ipProto byte
	switch p.Proto {
	case telescope.ProtoUDP:
		tpHdr, ipProto = 8, 17
	case telescope.ProtoTCP:
		tpHdr, ipProto = 20, 6
	case telescope.ProtoICMP:
		tpHdr, ipProto = 8, 1
	default:
		return 0, fmt.Errorf("capture: unencodable protocol %d: %w", byte(p.Proto), ErrBadPcap)
	}

	ipTotal := 20 + tpHdr + len(p.Payload)
	if ipTotal > 0xffff {
		return 0, fmt.Errorf("capture: datagram %d bytes: %w", ipTotal, ErrBadPcap)
	}
	// The 16-byte record header is built in-place ahead of the frame so
	// one buffered write covers both and nothing escapes per packet.
	f := append(w.buf[:0], recHdrZero[:]...)

	// Ethernet.
	f = append(f, macDst[:]...)
	f = append(f, macSrc[:]...)
	f = append(f, 0x08, 0x00)

	// IPv4 header with a real checksum so exported frames validate.
	ip := len(f)
	f = append(f,
		0x45, 0x00, byte(ipTotal>>8), byte(ipTotal),
		byte(w.n>>8), byte(w.n), 0x00, 0x00,
		64, ipProto, 0x00, 0x00)
	f = binary.BigEndian.AppendUint32(f, uint32(p.Src))
	f = binary.BigEndian.AppendUint32(f, uint32(p.Dst))
	ck := ipChecksum(f[ip : ip+20])
	f[ip+10], f[ip+11] = byte(ck>>8), byte(ck)

	// Transport header.
	switch p.Proto {
	case telescope.ProtoUDP:
		f = binary.BigEndian.AppendUint16(f, p.SrcPort)
		f = binary.BigEndian.AppendUint16(f, p.DstPort)
		f = binary.BigEndian.AppendUint16(f, uint16(8+len(p.Payload)))
		f = append(f, 0x00, 0x00) // checksum 0 = absent (legal for IPv4)
	case telescope.ProtoTCP:
		f = binary.BigEndian.AppendUint16(f, p.SrcPort)
		f = binary.BigEndian.AppendUint16(f, p.DstPort)
		f = append(f, 0, 0, 0, 0, 0, 0, 0, 0) // seq, ack
		f = append(f, 0x50, p.Flags)          // data offset 5, flag byte
		f = append(f, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00)
	case telescope.ProtoICMP:
		// Telescope ICMP records carry no ports on the wire; the echo
		// identifier/sequence fields hold them so nothing is lost. The
		// checksum covers header and payload per RFC 792.
		f = append(f, p.Flags, 0x00) // type, code
		sum := uint32(p.Flags)<<8 + uint32(p.SrcPort) + uint32(p.DstPort)
		ick := foldChecksum(onesSum(p.Payload, sum))
		f = append(f, byte(ick>>8), byte(ick))
		f = binary.BigEndian.AppendUint16(f, p.SrcPort)
		f = binary.BigEndian.AppendUint16(f, p.DstPort)
	}
	f = append(f, p.Payload...)

	// Telescope metadata trailer (Ethernet padding to standard tools).
	f = append(f, trailerMagic[:]...)
	f = binary.LittleEndian.AppendUint16(f, p.Size)
	f = append(f, p.Flags, 0x00)
	f = binary.LittleEndian.AppendUint32(f, p.Weight)
	w.buf = f
	if len(f)-pcapRecHdr > pcapSnaplen {
		return 0, fmt.Errorf("capture: frame %d bytes exceeds snaplen %d: %w", len(f)-pcapRecHdr, pcapSnaplen, ErrBadPcap)
	}

	binary.LittleEndian.PutUint32(f[0:], uint32(sec))
	binary.LittleEndian.PutUint32(f[4:], usec)
	binary.LittleEndian.PutUint32(f[8:], uint32(len(f)-pcapRecHdr))
	binary.LittleEndian.PutUint32(f[12:], uint32(len(f)-pcapRecHdr))
	return w.w.Write(f)
}

// ---------------------------------------------------------------------------
// Reader pieces. Frames that cannot be represented as telescope packets
// (non-IPv4, later IP fragments, unsupported transports) are skipped
// and counted, mirroring how the real telescope's capture filter drops
// out-of-scope traffic; foreign captures in either byte order and
// timestamp resolution, on any supported link type, ingest too.

// pcapHeader parses the global header and consumes it.
func (r *reader) pcapHeader() error {
	gh, err := r.w.peek(24)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a pcap has a header, even with no records
		}
		return r.short(err, "pcap global header", len(gh), 0, 24)
	}
	d := &r.pcap
	switch {
	case binary.LittleEndian.Uint32(gh[0:]) == pcapMagicUsec:
		d.order = binary.LittleEndian
	case binary.BigEndian.Uint32(gh[0:]) == pcapMagicUsec:
		d.order = binary.BigEndian
	case binary.LittleEndian.Uint32(gh[0:]) == pcapMagicNsec:
		d.order, d.nanos = binary.LittleEndian, true
	case binary.BigEndian.Uint32(gh[0:]) == pcapMagicNsec:
		d.order, d.nanos = binary.BigEndian, true
	default:
		return fmt.Errorf("capture: magic %#08x is no pcap variant: %w",
			binary.BigEndian.Uint32(gh[0:]), ErrBadPcap)
	}
	d.link = d.order.Uint32(gh[20:])
	switch d.link {
	case LinkEthernet, LinkRawIP, LinkLinuxSLL:
	default:
		return fmt.Errorf("capture: unsupported link type %d (want Ethernet=1, raw-IP=101, Linux-SLL=113): %w",
			d.link, ErrBadPcap)
	}
	r.w.advance(24)
	return nil
}

// bodyLen returns the frame length a 16-byte record header claims and
// whether it is within maxFrame.
func (d *pcapDecoder) bodyLen(hdr []byte) (int, bool) {
	incl := d.order.Uint32(hdr[8:])
	return int(incl), incl <= maxFrame
}

// pcapCorrupt is the error for a record header at byte offset at that
// bodyLen rejected.
func (r *reader) pcapCorrupt(hdr []byte, at uint64) error {
	return r.corruptf(at, "captured length %d", r.pcap.order.Uint32(hdr[8:]))
}

// boundary is the resync probe for pcap framing: a candidate 16-byte
// record header is plausible when its seconds field is past 2^30
// (≈ 2004, rejecting all-zero garbage), the sub-second field fits the
// stream's resolution, and the length pair is sane (0 < incl ≤ orig ≤
// maxFrame, covering snaplen-truncated foreign captures).
func (d pcapDecoder) boundary() boundary {
	maxSub := uint32(1_000_000)
	if d.nanos {
		maxSub = 1_000_000_000
	}
	order := d.order
	return boundary{
		hdrLen: pcapRecHdr,
		plausible: func(hdr []byte) (int, bool) {
			sec := order.Uint32(hdr[0:])
			sub := order.Uint32(hdr[4:])
			incl := order.Uint32(hdr[8:])
			orig := order.Uint32(hdr[12:])
			if sec < 1<<30 || sub >= maxSub {
				return 0, false
			}
			if incl == 0 || incl > maxFrame || orig < incl || orig > maxFrame {
				return 0, false
			}
			return pcapRecHdr + int(incl), true
		},
	}
}

// route probes a framed record just far enough (link decap, IPv4
// version and header reach) to return its IPv4 source address; false
// means the frame cannot be routed and is skipped.
func (d *pcapDecoder) route(span []byte) (netmodel.Addr, bool) {
	f := span[pcapRecHdr:]
	ipStart, ok := d.decap(f)
	if !ok || len(f)-ipStart < 20 || f[ipStart]>>4 != 4 {
		return 0, false
	}
	return netmodel.Addr(binary.BigEndian.Uint32(f[ipStart+12:])), true
}

// pcapDecoder is the pure record-decode half of the pcap format: the
// stream parameters fixed by the global header plus the stateless
// frame → packet decode. It is value-typed and immutable once the
// header is parsed, so shard workers can decode framed spans
// concurrently (DecodeSpan) while the reader goroutine keeps framing.
type pcapDecoder struct {
	order binary.ByteOrder
	nanos bool
	link  uint32
}

// DecodeSpan decodes one framed record span — the 16-byte record
// header plus its link-layer frame, as handed out by
// FrameNext/TakeSpan — into p. false means the frame is outside the
// telescope's packet model (a record Next skips).
// p.Payload aliases the span. Safe for concurrent use.
func (d pcapDecoder) DecodeSpan(span []byte, p *telescope.Packet) bool {
	sec := d.order.Uint32(span[0:])
	sub := d.order.Uint32(span[4:])
	var ms int64
	if d.nanos {
		ms = int64(sec)*1000 + int64(sub)/1_000_000
	} else {
		ms = int64(sec)*1000 + int64(sub)/1000
	}
	f := span[pcapRecHdr:]
	ipStart, ok := d.decap(f)
	if !ok {
		return false
	}
	return d.parseIPv4(p, f, ipStart, telescope.Timestamp(ms))
}

// decap strips the link-layer header, returning the IP header offset.
func (d pcapDecoder) decap(f []byte) (int, bool) {
	switch d.link {
	case LinkRawIP:
		return 0, true // callers check that an IP header fits
	case LinkEthernet:
		if len(f) < 14 {
			return 0, false
		}
		etype := binary.BigEndian.Uint16(f[12:])
		at := 14
		if etype == 0x8100 && len(f) >= 18 { // single 802.1Q tag
			etype = binary.BigEndian.Uint16(f[16:])
			at = 18
		}
		return at, etype == 0x0800
	case LinkLinuxSLL:
		if len(f) < 16 {
			return 0, false
		}
		return 16, binary.BigEndian.Uint16(f[14:]) == 0x0800
	}
	return 0, false
}

// parseIPv4 decodes the network and transport layers into p; ok=false
// skips frames outside the telescope's packet model.
func (d pcapDecoder) parseIPv4(p *telescope.Packet, f []byte, ipStart int, ts telescope.Timestamp) bool {
	ip := f[ipStart:]
	if len(ip) < 20 || ip[0]>>4 != 4 {
		return false
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < 20 || len(ip) < ihl {
		return false
	}
	totalLen := int(binary.BigEndian.Uint16(ip[2:]))
	if totalLen < ihl {
		return false
	}
	if binary.BigEndian.Uint16(ip[6:])&0x1fff != 0 {
		return false // later fragment: no transport header
	}
	ipEnd := totalLen
	if ipEnd > len(ip) {
		ipEnd = len(ip) // snaplen-truncated capture
	}
	tp := ip[ihl:ipEnd]

	*p = telescope.Packet{
		TS:  ts,
		Src: netmodel.Addr(binary.BigEndian.Uint32(ip[12:])),
		Dst: netmodel.Addr(binary.BigEndian.Uint32(ip[16:])),
	}

	switch ip[9] {
	case 17: // UDP
		if len(tp) < 8 {
			return false
		}
		p.Proto = telescope.ProtoUDP
		p.SrcPort = binary.BigEndian.Uint16(tp[0:])
		p.DstPort = binary.BigEndian.Uint16(tp[2:])
		if payload := tp[8:]; len(payload) > 0 {
			p.Payload = payload
		}
		// Claimed UDP payload length, from the UDP header — survives
		// snaplen truncation of the payload itself.
		if ul := int(binary.BigEndian.Uint16(tp[4:])); ul >= 8 {
			p.Size = clampU16(ul - 8)
		} else {
			p.Size = clampU16(len(p.Payload))
		}
	case 6: // TCP
		if len(tp) < 14 {
			return false
		}
		p.Proto = telescope.ProtoTCP
		p.SrcPort = binary.BigEndian.Uint16(tp[0:])
		p.DstPort = binary.BigEndian.Uint16(tp[2:])
		p.Flags = tp[13]
		p.Size = clampU16(totalLen)
		if dataOff := int(tp[12]>>4) * 4; dataOff >= 20 && dataOff < len(tp) {
			p.Payload = tp[dataOff:]
		}
	case 1: // ICMP
		if len(tp) < 1 {
			return false
		}
		p.Proto = telescope.ProtoICMP
		p.Flags = tp[0]
		p.Size = clampU16(totalLen)
		if len(tp) >= 8 {
			// Echo identifier/sequence, where the writer keeps ports.
			p.SrcPort = binary.BigEndian.Uint16(tp[4:])
			p.DstPort = binary.BigEndian.Uint16(tp[6:])
			if len(tp) > 8 {
				p.Payload = tp[8:]
			}
		}
	default:
		return false
	}

	// Telescope metadata trailer: strictly past the IP datagram, at the
	// very end of the frame.
	if tEnd := len(f); tEnd-trailerLen >= ipStart+totalLen {
		tr := f[tEnd-trailerLen:]
		if [4]byte(tr[0:4]) == trailerMagic {
			p.Size = binary.LittleEndian.Uint16(tr[4:])
			p.Flags = tr[6]
			p.Weight = binary.LittleEndian.Uint32(tr[8:])
		}
	}
	if int(p.Size) < len(p.Payload) {
		// Never let a foreign capture violate the store invariant
		// payloadLen ≤ size (e.g. a UDP length field lying short).
		p.Size = clampU16(len(p.Payload))
	}
	return true
}

func clampU16(n int) uint16 {
	if n > 0xffff {
		return 0xffff
	}
	return uint16(n)
}
