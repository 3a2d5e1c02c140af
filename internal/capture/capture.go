// Package capture is the trace ingestion and export subsystem: it
// gives the pipeline a first-class path from stored packets — real
// pcaps or native QSND checkpoints — into the sharded analysis engine,
// and back out again.
//
// Three pieces compose:
//
//   - one pure-Go (no cgo) reader and one writer serving both
//     container formats. A format supplies only its pieces: QSND
//     (qsnd.go) and classic libpcap (pcap.go: micro- and nanosecond
//     timestamp variants in either byte order, Ethernet, Linux-SLL and
//     raw-IP link types, IPv4/UDP decode down to the UDP payload plus
//     the TCP/ICMP metadata the common-vector baseline needs);
//   - the Source abstraction the reader implements, with format
//     auto-detection (NewSource, OpenFile), and the matching Sink over
//     the writer (NewSink);
//   - the scatter stage (Scatter) that fans one stored stream out to
//     per-shard engine feeds, sharded by source address: the reader
//     frames records and routes their raw spans, the shards decode —
//     the input path of every quicsand replay, with or without alerts.
//
// The reader frames records over a window (window.go), validating a
// whole record on peeked bytes and consuming it only then, so there is
// one framer whether the bytes stream through an io.Reader or lie in a
// memory-mapped file, and a record that fails validation is still
// entirely unread when salvage resyncs past it (DESIGN.md §14, §16).
// OpenFile maps a regular file of either format and streams everything
// else (pipes, platforms without mmap). Framed spans are handed to the
// scatter as they are: aliased when the window is stable (the mapping,
// valid until the source is closed), copied once into the routed
// shard's arena when it slides. The window is also the one place a
// Temporary() read error is retried (SalvagePolicy.MaxRetries), so one
// retry budget holds whoever drives the reader — Scatter, Copy or a
// caller's own Next loop.
//
// Export uses real wire encapsulation (Ethernet/IPv4 with valid
// checksums), so generated months open cleanly in tcpdump/Wireshark;
// a 12-byte Ethernet trailer carries the fields pcap cannot express
// (the thinning weight and the claimed original datagram size), which
// standard tools display as frame padding and our reader folds back
// losslessly.
package capture

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// Source streams stored packets in capture order. It is the replay
// twin of ibr.Source, with the same ownership contract: the packet
// returned by Next — including its Payload bytes — is valid only until
// the following Next call. Consumers that retain packets must copy
// them (the root Streamer copies into per-shard batches). A sharded
// Scatter does not call Next at all: it needs the source to be a
// SpanSource as well.
type Source interface {
	// Next returns the next packet, or io.EOF at a clean end of
	// stream. Any other error means the stream is corrupt or unreadable
	// at the reported point; no further packets follow.
	Next() (*telescope.Packet, error)
}

// SpanDecoder turns a framed record span into a packet. Decoders are
// immutable values safe for concurrent use from every shard worker —
// the whole point of the framing/decode split (DESIGN.md §16): the
// single reader goroutine only frames records, and the per-record
// parse work runs sharded. false reports a record outside the packet
// model (pcap decapsulation drops); decode of a framed span never
// fails otherwise, because the framer already validated the bytes.
// p.Payload aliases the span: the span's owner sets the lifetime.
type SpanDecoder interface {
	DecodeSpan(span []byte, p *telescope.Packet) bool
}

// SpanSource is the framing-side interface of the decode-after-scatter
// path. Sources that implement it let the scatter split ingest in two:
// FrameNext on the reader goroutine validates the next record and
// parses just enough of it to route it (source address), TakeSpan puts
// the raw bytes into the destination shard's arena, and the shard
// decodes batches of spans with the SpanDecoder. The reader implements
// it for both formats over either kind of window, so every source
// NewSource and OpenFile return does; a Scatter accepts nothing else
// (byte-plane fault injection wraps the io.Reader underneath and keeps
// the interface).
type SpanSource interface {
	Source
	// FrameNext frames the next record, returning the span length and
	// the source address for shard routing; io.EOF at a clean end of
	// stream. Salvage policy applies exactly as in Next.
	FrameNext() (int, netmodel.Addr, error)
	// TakeSpan hands out the framed record: a copy in dst (len(dst) is
	// the length FrameNext returned), or the source's own stable span
	// when SpanStable (dst is ignored then and may be nil). It cannot
	// fail — FrameNext returns only complete, validated records.
	TakeSpan(dst []byte) []byte
	// SpanStable reports whether returned spans outlive the next
	// FrameNext without copying — true for memory-backed sources (an
	// OpenFile mapping of either format), whose spans stay readable
	// until the source is closed and whose memory the caller must not
	// recycle.
	SpanStable() bool
	// SpanDecoder returns the source's concurrent-safe decoder.
	SpanDecoder() SpanDecoder
}

// Sink is a trace export target: a telescope capture sink with the
// error-reporting surface batch exporters need. NewSink returns one for
// either format.
type Sink interface {
	telescope.Sink
	// Write appends one record, reporting the first error eagerly.
	Write(*telescope.Packet) error
	// Flush drains buffered output; it and Err report the first
	// failure of the whole write sequence (full disk included), which
	// the fire-and-forget Capture path retains rather than surfacing.
	Flush() error
	// Err returns the sticky first write error, or nil.
	Err() error
	// Count returns records written so far.
	Count() uint64
	// Dropped returns records discarded after the first write error.
	Dropped() uint64
}

// Format identifies a trace container format.
type Format int

// Supported container formats.
const (
	FormatUnknown Format = iota
	FormatQSND           // native telescope checkpoint store
	FormatPcap           // classic libpcap
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatQSND:
		return "qsnd"
	case FormatPcap:
		return "pcap"
	}
	return "unknown"
}

// ErrUnknownFormat reports a stream whose leading magic matches no
// supported container.
var ErrUnknownFormat = errors.New("capture: unrecognized trace format (neither QSND nor pcap)")

// FormatForPath picks an export format from a file name: .pcap/.cap
// (and the compressed-suffix-free variants tools emit) select pcap,
// everything else the native store.
func FormatForPath(path string) Format {
	lower := strings.ToLower(path)
	if strings.HasSuffix(lower, ".pcap") || strings.HasSuffix(lower, ".cap") ||
		strings.HasSuffix(lower, ".dmp") {
		return FormatPcap
	}
	return FormatQSND
}

// sniffFormat identifies the container by its leading magic.
func sniffFormat(magic []byte) Format {
	switch {
	case isQSNDMagic(magic):
		return FormatQSND
	case isPcapMagic(magic):
		return FormatPcap
	}
	return FormatUnknown
}

// NewSource opens a stored packet stream, auto-detecting QSND vs pcap
// by magic. The returned Source reuses one packet across Next calls and
// its payload aliases the reader's buffer (see the Source ownership
// contract).
func NewSource(r io.Reader) (Source, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("capture: empty stream: %w", ErrUnknownFormat)
		}
		return nil, err
	}
	f := sniffFormat(magic[:])
	if f == FormatUnknown {
		return nil, ErrUnknownFormat
	}
	// The reader parses the file header itself: hand the sniffed bytes
	// back.
	rd, err := newReader(newWindow(io.MultiReader(bytes.NewReader(magic[:]), r)), f)
	if err != nil {
		return nil, err
	}
	return rd, nil
}

// NewSink creates an export sink writing the given format.
func NewSink(w io.Writer, f Format) Sink {
	if f != FormatPcap {
		f = FormatQSND
	}
	return newWriter(w, f)
}

// SourceFormat reports which container a Source produced by NewSource
// or OpenFile is reading.
func SourceFormat(src Source) Format {
	if r, ok := src.(*reader); ok {
		return r.format
	}
	return FormatUnknown
}

// SourceSkipped reports how many records the source dropped during
// decode (non-UDP/IPv4 pcap frames); always zero for the lossless
// native store.
func SourceSkipped(src Source) uint64 {
	if r, ok := src.(*reader); ok {
		return r.skipped
	}
	return 0
}

// SetSalvage installs a salvage policy on a Source produced by
// NewSource or OpenFile. Other sources have no degraded mode and ignore
// it.
func SetSalvage(src Source, pol SalvagePolicy) {
	if r, ok := src.(*reader); ok {
		r.w.pol = pol
	}
}

// SourceSalvage reports a Source's skipped-record ledger; all zeros
// for undamaged streams and for sources without a degraded mode.
func SourceSalvage(src Source) SalvageStats {
	if r, ok := src.(*reader); ok {
		return r.w.stats
	}
	return SalvageStats{}
}

// Copy streams every record from src into dst — the convert path.
// It returns the record count; the caller owns Flush.
func Copy(dst Sink, src Source) (uint64, error) {
	var n uint64
	for {
		p, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		if err := dst.Write(p); err != nil {
			return n, err
		}
		n++
	}
}
