package capture

import (
	"errors"
	"fmt"
	"io"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// reader is the one capture reader, for both container formats. It
// frames records over a window — validating a whole record on peeked
// bytes and consuming it only then — salvages damage per policy, hands
// out spans for the scatter and decodes them for Next. How the bytes
// arrive is the window's business (newWindow over an io.Reader,
// newSliceWindow over a memory-mapped file); everything else — error
// text, byte offsets, the salvage ledger — is one code path whichever
// it is.
//
// A format contributes only its pieces (qsnd.go, pcap.go): the file
// header parse, the record-header validation and resync boundary, the
// routing address and the span decode. The reader picks them with a
// branch on its format, not a call through an interface, so the
// per-record path stays free of dispatch.
//
// Corruption surfaces as an error wrapping the format's sentinel
// (ErrBadTrace, ErrBadPcap) that names the record index and byte
// offset; io.EOF is returned only at a clean record boundary. Under a
// SkipCorrupt policy record-level corruption is skipped instead: the
// window scans forward to the next plausible record boundary and
// accounts the skipped span in its ledger. File-header corruption stays
// terminal either way.
//
// The packet Next returns follows the Source contract: it and its
// payload alias reader-owned memory valid until the next Next, or —
// when the window is stable — the mapping until Close unmaps it.
type reader struct {
	w      *window
	format Format
	pcap   pcapDecoder // pcap stream parameters, fixed by the global header
	header bool        // the file header has been parsed
	rec    uint64      // records framed so far = index of the next record
	span   []byte      // framed by FrameNext, handed out by TakeSpan
	pkt    telescope.Packet
	// skipped counts records dropped before the packet model: pcap frames
	// the decapsulation cannot route or decode.
	skipped uint64
	mapping
}

// newReader reads the capture of format f at the head of w. A pcap
// global header is parsed here, because the decoder's byte order,
// resolution and link type come from it and its errors have always
// surfaced at open; a QSND file header is parsed by the first read.
func newReader(w *window, f Format) (*reader, error) {
	r := &reader{w: w, format: f}
	if f == FormatPcap {
		if err := r.readHeader(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// readHeader parses the file header and consumes it.
func (r *reader) readHeader() error {
	var err error
	if r.format == FormatPcap {
		err = r.pcapHeader()
	} else {
		err = r.qsndHeader()
	}
	r.header = err == nil
	return err
}

// corruptf builds the format's corruption error, annotated with the
// failing record's index and byte offset. QSND errors keep the
// "telescope:" prefix they were written with.
func (r *reader) corruptf(at uint64, format string, args ...any) error {
	pkg, bad := "telescope", ErrBadTrace
	if r.format == FormatPcap {
		pkg, bad = "capture", ErrBadPcap
	}
	return fmt.Errorf("%s: %s at record %d, byte offset %d: %w",
		pkg, fmt.Sprintf(format, args...), r.rec, at, bad)
}

// short classifies a failed peek of hdr+want bytes that returned have:
// nothing at all is a clean end of stream (only possible at a record
// boundary, where hdr is 0), a partial read is a truncated tail
// reported at the byte where the stream ended. Non-EOF I/O errors —
// e.g. transient failures that survived the retry budget — pass
// through unwrapped so salvage never mistakes a dying disk for
// corruption.
func (r *reader) short(err error, what string, have, hdr, want int) error {
	if err == io.ErrUnexpectedEOF {
		return r.corruptf(r.w.offset()+uint64(have), "truncated %s (%d of %d bytes)", what, have-hdr, want)
	}
	return err
}

// frame parses the file header on first use, then validates one
// complete record on peeked bytes and consumes it, returning its span
// (record header + body). On any error nothing of the record has been
// consumed.
func (r *reader) frame() ([]byte, error) {
	if !r.header {
		if err := r.readHeader(); err != nil {
			return nil, err
		}
	}
	at := r.w.offset()
	hdrLen := qsndRecHdr
	if r.format == FormatPcap {
		hdrLen = pcapRecHdr
	}
	hdr, err := r.w.peek(hdrLen)
	if err != nil {
		return nil, r.short(err, "record header", len(hdr), 0, hdrLen)
	}
	// The header check is the per-record cost, so each format's is small
	// enough to inline and says only yes or no; why a header failed is
	// worked out on the error path.
	var n int
	var ok bool
	if r.format == FormatPcap {
		n, ok = r.pcap.bodyLen(hdr)
	} else {
		n, ok = qsndBodyLen(hdr)
	}
	if !ok {
		if r.format == FormatPcap {
			return nil, r.pcapCorrupt(hdr, at)
		}
		return nil, r.qsndCorrupt(hdr, at)
	}
	span, err := r.w.peek(hdrLen + n)
	if err != nil {
		what := "payload"
		if r.format == FormatPcap {
			what = "frame"
		}
		return nil, r.short(err, what, len(span), hdrLen, n)
	}
	r.w.advance(len(span))
	r.rec++
	return span, nil
}

// next frames the next record, salvaging corruption per policy. Salvage
// applies only to record-level corruption after a valid file header: a
// damaged preamble condemns the file, and genuine I/O errors are not
// corruption to skip over.
func (r *reader) next() ([]byte, error) {
	for {
		span, err := r.frame()
		if err == nil || !r.w.pol.SkipCorrupt || !r.header ||
			!(errors.Is(err, ErrBadTrace) || errors.Is(err, ErrBadPcap)) {
			return span, err
		}
		b := qsndBoundary
		if r.format == FormatPcap {
			b = r.pcap.boundary()
		}
		if r.w.resync(b) != nil {
			return nil, io.EOF // torn tail: everything salvageable was read
		}
	}
}

// Next returns the next representable packet, or io.EOF.
func (r *reader) Next() (*telescope.Packet, error) {
	for {
		span, err := r.next()
		if err != nil {
			return nil, err
		}
		if r.format != FormatPcap {
			decodeQSND(span, &r.pkt)
			return &r.pkt, nil
		}
		if r.pcap.DecodeSpan(span, &r.pkt) {
			return &r.pkt, nil
		}
		r.skipped++
	}
}

// FrameNext frames the next routable record, returning its span length
// and its source address for shard routing; collect the span with
// TakeSpan before the next FrameNext. It reads just far enough into the
// record to find the address and leaves the full decode to the shards.
// A pcap frame the decapsulation cannot route (non-IP link payloads,
// non-IPv4, headerless runts) is counted in skipped and passed over, as
// in Next; the deeper packet-model rejections surface later as shard
// decode drops, so reader-side skips plus shard-side drops equal the
// sequential path's skips. Corruption is salvaged per policy as in Next.
func (r *reader) FrameNext() (int, netmodel.Addr, error) {
	for {
		span, err := r.next()
		if err != nil {
			return 0, 0, err
		}
		var src netmodel.Addr
		ok := true
		if r.format == FormatPcap {
			src, ok = r.pcap.route(span)
		} else {
			src = qsndRoute(span)
		}
		if ok {
			r.span = span
			return len(span), src, nil
		}
		r.skipped++
	}
}

// TakeSpan hands out the record framed by the last FrameNext: the span
// itself when the window is stable (dst is ignored), otherwise a copy
// in dst, whose length must be the framed span length — the one copy
// between the stream and the arena a shard decodes from.
func (r *reader) TakeSpan(dst []byte) []byte {
	if r.w.stable() {
		return r.span
	}
	copy(dst, r.span)
	return dst
}

// SpanStable reports whether spans alias the mapping (OpenFile of a
// regular file) rather than the sliding window.
func (r *reader) SpanStable() bool { return r.w.stable() }

// SpanDecoder returns the format's concurrent-safe span decoder.
func (r *reader) SpanDecoder() SpanDecoder {
	if r.format == FormatPcap {
		return r.pcap
	}
	return qsndDecoder{}
}
