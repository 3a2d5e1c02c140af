package capture

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"quicsand/internal/netmodel"
	"quicsand/internal/salvage"
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

// Pcap magics in file byte order as this package writes them.
const (
	pcapMagicUsec = 0xA1B2C3D4
	pcapMagicNsec = 0xA1B23C4D
	// pcapSnaplen is the declared capture length (tcpdump's -s0
	// default): roomy enough that a maximum QSND record — 65535
	// payload bytes plus encapsulation and trailer — always yields
	// incl_len ≤ snaplen, keeping strict readers happy.
	pcapSnaplen = 262144
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

// trailerLen is the size of the telescope metadata trailer PcapWriter
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
// Writer

// PcapWriter exports telescope packets as a classic pcap stream
// (microsecond timestamps, little endian, Ethernet link type) with
// real IPv4/UDP/TCP/ICMP encapsulation and valid IP checksums. It
// implements Sink; like telescope.Writer, write errors are sticky.
type PcapWriter struct {
	w       *bufio.Writer
	wrote   bool
	n       uint64
	dropped uint64
	err     error
	frame   []byte // reused frame build buffer
}

// NewPcapWriter wraps w.
func NewPcapWriter(w io.Writer) *PcapWriter {
	return &PcapWriter{w: bufio.NewWriterSize(w, 1<<16), frame: make([]byte, 0, 2048)}
}

// Synthetic MAC addresses for exported frames (locally administered).
var (
	macDst = [6]byte{0x02, 'Q', 'S', 'D', 0x00, 0x02}
	macSrc = [6]byte{0x02, 'Q', 'S', 'D', 0x00, 0x01}
)

// recHdrZero reserves the in-frame record header slot.
var recHdrZero [16]byte

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

// Write appends one packet as a full Ethernet frame record.
func (pw *PcapWriter) Write(p *telescope.Packet) error {
	if pw.err != nil {
		return pw.err
	}
	if err := pw.write(p); err != nil {
		pw.err = err
		return err
	}
	pw.n++
	return nil
}

// writeHeader emits the global header once.
func (pw *PcapWriter) writeHeader() error {
	if pw.wrote {
		return nil
	}
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:], pcapMagicUsec)
	binary.LittleEndian.PutUint16(gh[4:], 2) // version 2.4
	binary.LittleEndian.PutUint16(gh[6:], 4)
	binary.LittleEndian.PutUint32(gh[16:], pcapSnaplen)
	binary.LittleEndian.PutUint32(gh[20:], LinkEthernet)
	if _, err := pw.w.Write(gh[:]); err != nil {
		return err
	}
	pw.wrote = true
	return nil
}

func (pw *PcapWriter) write(p *telescope.Packet) error {
	if err := pw.writeHeader(); err != nil {
		return err
	}
	if p.TS < 0 {
		return fmt.Errorf("capture: timestamp %d before the epoch: %w", p.TS, ErrBadPcap)
	}
	sec := uint64(p.TS) / 1000
	if sec > 0xffffffff {
		return fmt.Errorf("capture: timestamp %d beyond pcap range: %w", p.TS, ErrBadPcap)
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
		return fmt.Errorf("capture: unencodable protocol %d: %w", byte(p.Proto), ErrBadPcap)
	}

	ipTotal := 20 + tpHdr + len(p.Payload)
	if ipTotal > 0xffff {
		return fmt.Errorf("capture: datagram %d bytes: %w", ipTotal, ErrBadPcap)
	}
	// The 16-byte record header is built in-place ahead of the frame so
	// one buffered write covers both and nothing escapes per packet.
	f := append(pw.frame[:0], recHdrZero[:]...)

	// Ethernet.
	f = append(f, macDst[:]...)
	f = append(f, macSrc[:]...)
	f = append(f, 0x08, 0x00)

	// IPv4 header with a real checksum so exported frames validate.
	ip := len(f)
	f = append(f,
		0x45, 0x00, byte(ipTotal>>8), byte(ipTotal),
		byte(pw.n>>8), byte(pw.n), 0x00, 0x00,
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
	pw.frame = f
	if len(f)-16 > pcapSnaplen {
		return fmt.Errorf("capture: frame %d bytes exceeds snaplen %d: %w", len(f)-16, pcapSnaplen, ErrBadPcap)
	}

	binary.LittleEndian.PutUint32(f[0:], uint32(sec))
	binary.LittleEndian.PutUint32(f[4:], usec)
	binary.LittleEndian.PutUint32(f[8:], uint32(len(f)-16))
	binary.LittleEndian.PutUint32(f[12:], uint32(len(f)-16))
	_, err := pw.w.Write(f)
	return err
}

// Capture implements telescope.Sink; errors are retained (see Err).
func (pw *PcapWriter) Capture(p *telescope.Packet) {
	if pw.err != nil {
		pw.dropped++
		return
	}
	_ = pw.Write(p)
}

// Count returns records written so far.
func (pw *PcapWriter) Count() uint64 { return pw.n }

// Dropped returns records discarded after the writer errored.
func (pw *PcapWriter) Dropped() uint64 { return pw.dropped }

// Err returns the first write error, or nil.
func (pw *PcapWriter) Err() error { return pw.err }

// Flush drains buffered output, reporting the sticky first error.
func (pw *PcapWriter) Flush() error {
	if pw.err != nil {
		return pw.err
	}
	// An empty capture still gets a valid global header.
	if err := pw.writeHeader(); err != nil {
		pw.err = err
		return pw.err
	}
	if err := pw.w.Flush(); err != nil {
		pw.err = err
	}
	return pw.err
}

// ---------------------------------------------------------------------------
// Reader

// PcapReader ingests classic pcap streams, framing records over a
// salvage.Window. Frames that cannot be represented as telescope
// packets (non-IPv4, later IP fragments, unsupported transports) are
// skipped and counted, mirroring how the real telescope's capture
// filter drops out-of-scope traffic.
//
// With SetSalvage, record-level corruption stops being terminal: the
// reader scans forward for the next plausible record header
// (timestamp-sanity heuristics over the fixed 16-byte framing), skips
// the damaged span, and accounts it in Salvage(). Global-header
// corruption stays terminal either way.
//
// The returned packet follows the Source contract: it and its payload
// alias reader-owned buffers valid until the next Next call.
//
// The window decides how bytes arrive, nothing else: NewPcapReader
// slides one over an io.Reader, OpenFile lays one over the mapped file,
// whose spans are then stable (SpanStable) until Close unmaps it; on a
// streamed reader Close does nothing.
type PcapReader struct {
	w *salvage.Window
	pcapDecoder
	pkt  telescope.Packet
	rec  uint64 // records framed so far (decode-skips included)
	span []byte // framed by FrameNext, handed out by TakeSpan
	mapping

	// Skipped counts records dropped during decapsulation.
	Skipped uint64
}

// NewPcapReader parses the global header and returns a reader.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	return newPcapReader(salvage.NewWindow(r))
}

// newPcapReader parses the global header at the head of w.
func newPcapReader(w *salvage.Window) (*PcapReader, error) {
	pr := &PcapReader{w: w}
	gh, err := w.Peek(24)
	if err != nil {
		return nil, fmt.Errorf("capture: truncated pcap global header: %w", ErrBadPcap)
	}
	switch {
	case binary.LittleEndian.Uint32(gh[0:]) == pcapMagicUsec:
		pr.order = binary.LittleEndian
	case binary.BigEndian.Uint32(gh[0:]) == pcapMagicUsec:
		pr.order = binary.BigEndian
	case binary.LittleEndian.Uint32(gh[0:]) == pcapMagicNsec:
		pr.order, pr.nanos = binary.LittleEndian, true
	case binary.BigEndian.Uint32(gh[0:]) == pcapMagicNsec:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, fmt.Errorf("capture: magic %#08x is no pcap variant: %w",
			binary.BigEndian.Uint32(gh[0:]), ErrBadPcap)
	}
	pr.link = pr.order.Uint32(gh[20:])
	switch pr.link {
	case LinkEthernet, LinkRawIP, LinkLinuxSLL:
	default:
		return nil, fmt.Errorf("capture: unsupported link type %d (want Ethernet=1, raw-IP=101, Linux-SLL=113): %w",
			pr.link, ErrBadPcap)
	}
	w.Advance(24)
	return pr, nil
}

// SetSalvage installs the degraded-ingest policy. The zero policy is
// the default fail-fast behavior.
func (pr *PcapReader) SetSalvage(pol salvage.Policy) { pr.w.Pol = pol }

// Salvage returns the skipped-record ledger accumulated so far. All
// zeros on an undamaged stream.
func (pr *PcapReader) Salvage() salvage.Stats { return pr.w.Stats }

// badf builds an ErrBadPcap annotated with the failing record's index
// and byte offset.
func (pr *PcapReader) badf(at uint64, format string, args ...any) error {
	return fmt.Errorf("capture: %s at record %d, byte offset %d: %w",
		fmt.Sprintf(format, args...), pr.rec, at, ErrBadPcap)
}

// boundary is the resync probe for pcap framing: a candidate 16-byte
// record header is plausible when its seconds field is past 2^30
// (≈ 2004, rejecting all-zero garbage), the sub-second field fits the
// stream's resolution, and the length pair is sane (0 < incl ≤ orig ≤
// maxFrame, covering snaplen-truncated foreign captures).
func (pr *PcapReader) boundary() salvage.Boundary {
	maxSub := uint32(1_000_000)
	if pr.nanos {
		maxSub = 1_000_000_000
	}
	order := pr.order
	return salvage.Boundary{
		HdrLen: 16,
		Plausible: func(hdr []byte) (int, bool) {
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
			return 16 + int(incl), true
		},
	}
}

// short classifies a failed Peek of hdr+want bytes that returned have:
// nothing at all is a clean end of stream (only possible at a record
// boundary), a partial read a truncated tail reported at the byte
// where the stream ended; other I/O errors pass through unwrapped.
func (pr *PcapReader) short(err error, what string, have, hdr, want int) error {
	if err == io.ErrUnexpectedEOF {
		return pr.badf(pr.w.Offset()+uint64(have), "truncated %s (%d of %d bytes)", what, have-hdr, want)
	}
	return err
}

// frame validates one complete record — the 16-byte header plus the
// link-layer frame — on peeked bytes and consumes it, returning its
// span. On any error nothing of the record has been consumed.
func (pr *PcapReader) frame() ([]byte, error) {
	recStart := pr.w.Offset()
	rh, err := pr.w.Peek(16)
	if err != nil {
		return nil, pr.short(err, "record header", len(rh), 0, 16)
	}
	incl := pr.order.Uint32(rh[8:])
	if incl > maxFrame {
		return nil, pr.badf(recStart, "captured length %d", incl)
	}
	span, err := pr.w.Peek(16 + int(incl))
	if err != nil {
		return nil, pr.short(err, "frame", len(span), 16, int(incl))
	}
	pr.w.Advance(len(span))
	pr.rec++
	return span, nil
}

// next frames the next record, salvaging corruption per policy.
// Salvage applies only to record-level ErrBadPcap (the global header
// was parsed in NewPcapReader); genuine I/O errors are not corruption
// to skip over.
func (pr *PcapReader) next() ([]byte, error) {
	for {
		span, err := pr.frame()
		if err == nil || !pr.w.Pol.SkipCorrupt || !errors.Is(err, ErrBadPcap) {
			return span, err
		}
		if pr.w.Resync(pr.boundary()) != nil {
			return nil, io.EOF // torn tail: everything salvageable was read
		}
	}
}

// Next returns the next representable packet, or io.EOF.
func (pr *PcapReader) Next() (*telescope.Packet, error) {
	for {
		span, err := pr.next()
		if err != nil {
			return nil, err
		}
		if pr.DecodeSpan(span, &pr.pkt) {
			return &pr.pkt, nil
		}
		pr.Skipped++
	}
}

// FrameNext frames the next routable record, returning its span length
// (the 16-byte record header plus the frame) and the IPv4 source
// address for shard routing; collect the span with TakeSpan before the
// next FrameNext. It probes just far enough (link decap, IPv4 version
// and header reach) to extract the routing address, leaving the full
// decode to the shards: frames the decapsulation cannot route (non-IP
// link payloads, non-IPv4, headerless runts) are counted in Skipped and
// skipped here, exactly as in Next; the deeper packet-model rejections
// surface later as DecodeSpan drops, so reader-side Skipped plus
// shard-side drops equals the sequential path's Skipped. Corruption is
// salvaged per policy as in Next.
func (pr *PcapReader) FrameNext() (int, netmodel.Addr, error) {
	for {
		span, err := pr.next()
		if err != nil {
			return 0, 0, err
		}
		f := span[16:]
		ipStart, ok := pr.decap(f)
		if !ok || len(f)-ipStart < 20 || f[ipStart]>>4 != 4 {
			pr.Skipped++
			continue
		}
		pr.span = span
		return len(span), netmodel.Addr(binary.BigEndian.Uint32(f[ipStart+12:])), nil
	}
}

// TakeSpan hands out the record framed by the last FrameNext: the span
// itself when the window is stable (dst is ignored), otherwise a copy
// in dst, whose length must be the framed span length — the one copy
// between the stream and the arena a shard decodes from.
func (pr *PcapReader) TakeSpan(dst []byte) []byte {
	if pr.w.Stable() {
		return pr.span
	}
	copy(dst, pr.span)
	return dst
}

// pcapDecoder is the pure record-decode half of the pcap reader: the
// stream parameters fixed by the global header plus the stateless
// frame → packet decode. It is value-typed and immutable after
// NewPcapReader, so shard workers can decode framed spans concurrently
// (DecodeSpan) while the reader goroutine keeps framing.
type pcapDecoder struct {
	order binary.ByteOrder
	nanos bool
	link  uint32
}

// DecodeSpan decodes one framed record span — the 16-byte record
// header plus its link-layer frame, as handed out by
// FrameNext/TakeSpan — into p. false means the frame is outside the
// telescope's packet model (the sequential path's Skipped class).
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
	f := span[16:]
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
		return 0, len(f) > 0
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
