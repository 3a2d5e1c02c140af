package telescope

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"quicsand/internal/netmodel"
	"quicsand/internal/salvage"
)

// Binary trace store: the native checkpoint format (pcap import/export
// lives in internal/capture). Layout, little endian:
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
// re-simulating; it also exercises the I/O path a real deployment
// would use against pcaps (quicsand.Replay accepts either format
// through capture.Source).

const (
	storeMagic   = 0x51534e44 // "QSND"
	storeVersion = 2
	// recHdrLen is the fixed-size record prefix before the payload
	// length field.
	recHdrLen = 28
)

// ErrBadTrace reports a corrupt, truncated, or foreign trace file.
// Reader errors wrap it and carry the byte offset of the bad record.
var ErrBadTrace = errors.New("telescope: bad trace file")

// Writer serializes packets to a stream. Write errors are sticky: the
// first underlying failure (e.g. a full disk) is retained, every
// subsequent Write fails fast with it, and Flush/Err report it —
// callers using the fire-and-forget Capture path must check Err (or
// Flush) before trusting the file.
type Writer struct {
	w       *bufio.Writer
	wrote   bool
	n       uint64
	off     uint64 // bytes emitted so far (error annotation)
	dropped uint64
	err     error
	// scratch backs the record header so the hot path never re-allocates
	// it (a stack array would escape through the io interfaces).
	scratch [recHdrLen + 2]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write appends one packet record.
func (tw *Writer) Write(p *Packet) error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.write(p); err != nil {
		tw.err = err
		return err
	}
	tw.n++
	return nil
}

// writeHeader emits the file header once.
func (tw *Writer) writeHeader() error {
	if tw.wrote {
		return nil
	}
	fh := tw.scratch[:8]
	binary.LittleEndian.PutUint32(fh[0:], storeMagic)
	binary.LittleEndian.PutUint32(fh[4:], storeVersion)
	if _, err := tw.w.Write(fh); err != nil {
		return err
	}
	tw.off += uint64(len(fh))
	tw.wrote = true
	return nil
}

func (tw *Writer) write(p *Packet) error {
	if err := tw.writeHeader(); err != nil {
		return err
	}
	if len(p.Payload) > 0xffff {
		return fmt.Errorf("telescope: payload %d bytes at record %d, byte offset %d: %w",
			len(p.Payload), tw.n, tw.off, ErrBadTrace)
	}
	if len(p.Payload) > int(p.Size) {
		return fmt.Errorf("telescope: payload %d bytes exceeds datagram size %d at record %d, byte offset %d: %w",
			len(p.Payload), p.Size, tw.n, tw.off, ErrBadTrace)
	}
	hdr := &tw.scratch
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
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return err
	}
	tw.off += uint64(len(hdr))
	if _, err := tw.w.Write(p.Payload); err != nil {
		return err
	}
	tw.off += uint64(len(p.Payload))
	return nil
}

// Count returns records written so far.
func (tw *Writer) Count() uint64 { return tw.n }

// Dropped returns the number of Capture records discarded after the
// writer entered its error state.
func (tw *Writer) Dropped() uint64 { return tw.dropped }

// Err returns the first write error, or nil.
func (tw *Writer) Err() error { return tw.err }

// Flush drains buffered output and reports the first error of the
// whole write sequence. An empty trace still gets a valid file header,
// so a zero-record capture reopens cleanly (like an empty pcap).
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.writeHeader(); err != nil {
		tw.err = err
		return tw.err
	}
	if err := tw.w.Flush(); err != nil {
		tw.err = err
	}
	return tw.err
}

// Capture implements Sink. Errors are retained (see Err); records
// offered after a failure are counted in Dropped.
func (tw *Writer) Capture(p *Packet) {
	if tw.err != nil {
		tw.dropped++
		return
	}
	_ = tw.Write(p)
}

// Reader deserializes packets from a QSND stream, framing records over
// a salvage.Window: NewReader slides the window over an io.Reader,
// NewBuffer lays it over a byte slice holding the whole stream (the
// memory-mapped case, where framing is offset arithmetic and spans and
// payloads alias the data). Everything else — validation order, error
// text, byte offsets, salvage accounting — is one code path.
//
// Corruption — a foreign magic, an unsupported version, a record whose
// payload length exceeds its datagram size, or a truncated tail —
// surfaces as an error wrapping ErrBadTrace that names the record index
// and byte offset; io.EOF is returned only at a clean record boundary.
//
// With SetSalvage, record-level corruption stops being terminal: the
// reader scans forward for the next plausible record boundary (QSND v2
// framing heuristics: a timestamp inside the plausible epoch window, a
// known protocol, a payload length that fits its datagram), skips the
// damaged span, and accounts every skipped byte and the worst-case
// record loss in Salvage(). File-header corruption stays terminal
// either way.
type Reader struct {
	w      *salvage.Window
	header bool
	rec    uint64 // records framed so far = index of the next record
	span   []byte // framed by FrameNext, handed out by TakeSpan
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{w: salvage.NewWindow(r)} }

// NewBuffer reads data, a complete QSND stream starting at the file
// header, in place: nothing is copied on ingest, so data must stay
// alive and unmodified while spans or payloads are in use.
func NewBuffer(data []byte) *Reader { return &Reader{w: salvage.NewSliceWindow(data)} }

// SetSalvage installs the degraded-ingest policy. The zero policy is
// the default fail-fast behavior.
func (tr *Reader) SetSalvage(pol salvage.Policy) { tr.w.Pol = pol }

// Salvage returns the skipped-record ledger accumulated so far. All
// zeros on an undamaged stream.
func (tr *Reader) Salvage() salvage.Stats { return tr.w.Stats }

// Stable reports whether spans and payloads handed out alias memory
// that outlives the next read (NewBuffer) or the reader's sliding
// buffer, valid only until the next read (NewReader).
func (tr *Reader) Stable() bool { return tr.w.Stable() }

// corruptf builds an ErrBadTrace annotated with the failing record's
// index and byte offset.
func (tr *Reader) corruptf(at uint64, format string, args ...any) error {
	return fmt.Errorf("telescope: %s at record %d, byte offset %d: %w",
		fmt.Sprintf(format, args...), tr.rec, at, ErrBadTrace)
}

// short classifies a failed Peek of hdr+want bytes that returned have:
// nothing at all is a clean end of stream (only possible at a record
// boundary, where hdr is 0), a partial read is a truncated tail
// (ErrBadTrace) reported at the byte where the stream ended. Non-EOF
// I/O errors — e.g. transient failures that survived the retry budget —
// pass through unwrapped so salvage never mistakes a dying disk for
// trace corruption.
func (tr *Reader) short(err error, what string, have, hdr, want int) error {
	if err == io.ErrUnexpectedEOF {
		return tr.corruptf(tr.w.Offset()+uint64(have), "truncated %s (%d of %d bytes)", what, have-hdr, want)
	}
	return err
}

// qsndBoundary is the resync probe for QSND v2 framing: a candidate
// record header is plausible when its timestamp falls inside a sane
// epoch window (2^40..2^42 ms ≈ 2004–2109, which also rejects
// all-zero garbage), its protocol is known, and its payload length
// fits the claimed datagram size.
var qsndBoundary = salvage.Boundary{
	HdrLen: recHdrLen + 2,
	Plausible: func(hdr []byte) (int, bool) {
		ts := binary.LittleEndian.Uint64(hdr[0:])
		if ts < 1<<40 || ts > 1<<42 {
			return 0, false
		}
		if hdr[20] > byte(ProtoICMP) {
			return 0, false
		}
		size := binary.LittleEndian.Uint16(hdr[22:])
		plen := binary.LittleEndian.Uint16(hdr[28:])
		if plen > size {
			return 0, false
		}
		return recHdrLen + 2 + int(plen), true
	},
}

// frame validates the file header lazily, then validates one complete
// record on peeked bytes and consumes it, returning its span (header +
// payload). On any error nothing of the record has been consumed.
func (tr *Reader) frame() ([]byte, error) {
	if !tr.header {
		fh, err := tr.w.Peek(8)
		if err != nil {
			return nil, tr.short(err, "file header", len(fh), 0, 8)
		}
		if magic := binary.LittleEndian.Uint32(fh[0:]); magic != storeMagic {
			return nil, tr.corruptf(0, "magic %#08x (want %#08x)", magic, storeMagic)
		}
		if v := binary.LittleEndian.Uint32(fh[4:]); v != storeVersion {
			return nil, tr.corruptf(4, "unsupported trace version %d (want %d)", v, storeVersion)
		}
		tr.w.Advance(8)
		tr.header = true
	}
	recStart := tr.w.Offset()
	hdr, err := tr.w.Peek(recHdrLen + 2)
	if err != nil {
		return nil, tr.short(err, "record header", len(hdr), 0, recHdrLen+2)
	}
	if hdr[20] > byte(ProtoICMP) {
		return nil, tr.corruptf(recStart, "unknown protocol %d", hdr[20])
	}
	size := binary.LittleEndian.Uint16(hdr[22:])
	n := int(binary.LittleEndian.Uint16(hdr[28:]))
	if n > int(size) {
		return nil, tr.corruptf(recStart, "payload length %d exceeds datagram size %d", n, size)
	}
	span, err := tr.w.Peek(recHdrLen + 2 + n)
	if err != nil {
		return nil, tr.short(err, "payload", len(span), recHdrLen+2, n)
	}
	tr.w.Advance(len(span))
	tr.rec++
	return span, nil
}

// next frames the next record, salvaging corruption per policy.
// Salvage applies only to record-level ErrBadTrace after a valid file
// header: a damaged preamble condemns the file, and genuine I/O errors
// are not corruption to skip over.
func (tr *Reader) next() ([]byte, error) {
	for {
		span, err := tr.frame()
		if err == nil || !tr.w.Pol.SkipCorrupt || !tr.header || !errors.Is(err, ErrBadTrace) {
			return span, err
		}
		if tr.w.Resync(qsndBoundary) != nil {
			return nil, io.EOF // torn tail: everything salvageable was read
		}
	}
}

// ReadInto decodes the next record into p — the allocation-free path
// capture.Source wrappers use. p.Payload (nil for payload-less
// records) aliases the span: valid only until the next read unless the
// reader is Stable; retainers must copy. On io.EOF or corruption p is
// left untouched.
func (tr *Reader) ReadInto(p *Packet) error {
	span, err := tr.next()
	if err != nil {
		return err
	}
	DecodeRecord(span, p)
	return nil
}

// DecodeRecord decodes a complete QSND v2 record span — the fixed
// header plus its payload, as framed by FrameNext/TakeSpan — into p.
// The span must already be validated by the framer; decode itself
// cannot fail. p.Payload aliases the span (nil for payload-less
// records), so the span's owner decides the lifetime. Safe for
// concurrent use: decoding touches no shared state.
func DecodeRecord(span []byte, p *Packet) {
	*p = Packet{
		TS:      Timestamp(binary.LittleEndian.Uint64(span[0:])),
		Src:     netmodel.Addr(binary.LittleEndian.Uint32(span[8:])),
		Dst:     netmodel.Addr(binary.LittleEndian.Uint32(span[12:])),
		SrcPort: binary.LittleEndian.Uint16(span[16:]),
		DstPort: binary.LittleEndian.Uint16(span[18:]),
		Proto:   Proto(span[20]),
		Flags:   span[21],
		Size:    binary.LittleEndian.Uint16(span[22:]),
		Weight:  binary.LittleEndian.Uint32(span[24:]),
	}
	if n := int(binary.LittleEndian.Uint16(span[28:])); n > 0 {
		p.Payload = span[recHdrLen+2 : recHdrLen+2+n : recHdrLen+2+n]
	}
}

// FrameNext frames the next record, returning its span length (header +
// payload) and its source address for shard routing; collect the span
// with TakeSpan before the next FrameNext. Corruption is salvaged per
// policy exactly as in ReadInto; io.EOF means a clean end of stream.
func (tr *Reader) FrameNext() (int, netmodel.Addr, error) {
	span, err := tr.next()
	if err != nil {
		return 0, 0, err
	}
	tr.span = span
	return len(span), netmodel.Addr(binary.LittleEndian.Uint32(span[8:])), nil
}

// TakeSpan hands out the record framed by the last FrameNext: the span
// itself when the reader is Stable (dst is ignored), otherwise a copy
// in dst, whose length must be the framed span length — the one copy
// between the stream and the arena a shard decodes from.
func (tr *Reader) TakeSpan(dst []byte) []byte {
	if tr.w.Stable() {
		return tr.span
	}
	copy(dst, tr.span)
	return dst
}

// Read returns the next packet, freshly allocated (safe to retain), or
// io.EOF.
func (tr *Reader) Read() (*Packet, error) {
	p := &Packet{}
	if err := tr.ReadInto(p); err != nil {
		return nil, err
	}
	if p.Payload != nil {
		p.Payload = append([]byte(nil), p.Payload...) // off the window
	}
	return p, nil
}

// Next implements capture.Source over freshly allocated packets.
func (tr *Reader) Next() (*Packet, error) { return tr.Read() }
