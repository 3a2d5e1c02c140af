// Package salvage is the degraded-ingest substrate: the policy,
// accounting, and byte-level resynchronization machinery that lets the
// capture readers (telescope.Reader, capture.PcapReader) survive
// damaged inputs — torn tails from crashed recorders, bit-flips from
// disk, short reads and transient EAGAIN-class errors from network
// filesystems — instead of aborting on the first bad byte.
//
// The package deliberately knows nothing about record formats: readers
// frame their records over a Window — peeking at unread bytes and
// advancing only past a complete, validated record — and hand it a
// format-specific Boundary probe when a record fails to parse. The
// Window then scans forward from that record's first byte for the next
// position where a plausible record starts and is confirmed by a
// plausible successor (or a clean end of stream), counts the skipped
// span, and leaves decoding to resume there. The same Window serves a
// streamed capture (a sliding buffer over an io.Reader) and a
// memory-mapped one (the whole file as one slice), so there is one
// framer per format and one resync. Every skipped byte and record flows
// into Stats, which the telemetry layer exposes and the oracle consumes
// as the degraded-run error budget (DESIGN.md §14).
package salvage

import (
	"errors"
	"io"
	"time"
)

// Policy selects how a reader reacts to damaged or failing input. The
// zero value is fail-fast: the first corruption or exhausted read is a
// terminal error, exactly the historical behavior.
type Policy struct {
	// SkipCorrupt enables resync: corrupt records are skipped and
	// counted instead of killing the stream. File-header corruption
	// (wrong magic, unsupported version) stays terminal — a damaged
	// preamble means the whole file is suspect, not a span of it.
	SkipCorrupt bool
	// MaxRetries bounds re-reads after a transient (Temporary())
	// error; 0 disables retrying.
	MaxRetries int
	// Backoff is the first retry's delay, doubled per attempt.
	// 0 means 1ms.
	Backoff time.Duration
	// Sleep replaces time.Sleep between retries (test hook).
	Sleep func(time.Duration)
}

// Enabled reports whether the policy departs from fail-fast at all.
func (p Policy) Enabled() bool { return p.SkipCorrupt || p.MaxRetries > 0 }

// Wait sleeps the exponential backoff for the given 1-based attempt.
func (p Policy) Wait(attempt int) {
	d := p.Backoff
	if d <= 0 {
		d = time.Millisecond
	}
	if attempt > 20 {
		attempt = 20 // clamp the shift, not the wait
	}
	d <<= uint(attempt - 1)
	if p.Sleep != nil {
		p.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Stats is the skipped-record ledger of one salvaged stream. All
// fields are zero on an undamaged input, so enabling salvage on clean
// files changes nothing observable.
type Stats struct {
	// CorruptRecords counts records that failed to decode and were
	// skipped (one per resync, including torn tails).
	CorruptRecords uint64 `json:"corrupt_records"`
	// ResyncScans counts forward scans for a plausible record boundary.
	ResyncScans uint64 `json:"resync_scans"`
	// SalvagedBytes counts the bytes of damaged span skipped over.
	SalvagedBytes uint64 `json:"salvaged_bytes"`
	// TransientRetries counts reads retried after a Temporary() error.
	TransientRetries uint64 `json:"transient_retries"`
	// MaxLostRecords is the provable ceiling on records destroyed
	// inside the skipped spans (span/minRecordSize+1, summed) — the
	// oracle's degraded-run error budget.
	MaxLostRecords uint64 `json:"max_lost_records"`
}

// Transient marks an error as retryable, in the net.Error tradition:
// EAGAIN-class failures from network filesystems and the fault
// injector implement it. Readers never import the fault layer — the
// interface is the entire contract.
type Transient interface{ Temporary() bool }

// IsTransient reports whether err (or anything it wraps) declares
// itself temporary.
func IsTransient(err error) bool {
	var t Transient
	return errors.As(err, &t) && t.Temporary()
}

// Boundary is a format's record-framing probe for resync scans.
type Boundary struct {
	// HdrLen is the fixed record-header size — also the minimum
	// record size, which bounds how many records a skipped span can
	// have destroyed.
	HdrLen int
	// Plausible inspects HdrLen candidate bytes and, if they could
	// start a record, returns the full record length (header + body).
	Plausible func(hdr []byte) (recLen int, ok bool)
}

const (
	// windowSize is a stream window's initial buffer and the granule it
	// grows by: a record longer than the buffer reallocates it to the
	// next multiple that holds the record, so the window settles at the
	// largest record seen and never shrinks.
	windowSize = 64 << 10
	// maxEmptyReads bounds consecutive (0, nil) reads before the window
	// gives up with io.ErrNoProgress instead of spinning on a broken
	// io.Reader.
	maxEmptyReads = 100
)

// Window is the byte window every capture framer reads through: the
// unread bytes of a stream, inspected with Peek and consumed with
// Advance. Framers validate a record entirely on peeked bytes and
// advance only past a complete one, so a record that fails validation
// has consumed nothing and Resync starts from its first byte — there is
// no push-back buffer and no copy of "bytes already read" to rescan.
//
// One struct serves both arrivals. NewWindow slides over an io.Reader:
// a buffer that compacts on fill, grows to the largest record seen and
// retries Temporary() errors per Pol. NewSliceWindow is the same struct
// already full and at end of stream — the memory-mapped case: it never
// reads or moves bytes, so the spans it hands out are stable.
type Window struct {
	// Pol is the active salvage policy.
	Pol Policy
	// Stats is the skipped-record ledger.
	Stats Stats

	r    io.Reader // nil for a slice window: buf is the whole stream
	buf  []byte    // buf[pos:] is the unread window
	pos  int
	base uint64 // stream offset of buf[0]
}

// NewWindow returns a sliding window over r.
func NewWindow(r io.Reader) *Window {
	return &Window{r: r, buf: make([]byte, 0, windowSize)}
}

// NewSliceWindow returns a window over data, which holds the whole
// stream and must stay alive and unmodified while spans are in use.
func NewSliceWindow(data []byte) *Window { return &Window{buf: data} }

// Stable reports whether slices returned by Peek stay valid for the
// window's lifetime (slice windows) or only until the next Peek or
// Resync (stream windows, whose buffer compacts and grows).
func (w *Window) Stable() bool { return w.r == nil }

// Offset returns the stream position of the next unread byte. A failed
// Peek consumes nothing, so after a framing error — corruption or an
// I/O error alike — this is still the start of the record being read.
func (w *Window) Offset() uint64 { return w.base + uint64(w.pos) }

// Peek returns the next n unread bytes without consuming them. When the
// stream cannot supply n it returns the bytes there are and why, with
// io.ReadFull's contract: io.EOF only when none are left,
// io.ErrUnexpectedEOF after a partial fill; other read errors pass
// through unchanged and leave the bytes buffered, so a later Peek
// retries the read.
func (w *Window) Peek(n int) ([]byte, error) {
	if len(w.buf)-w.pos < n {
		if err := w.fill(n); err != nil {
			return w.buf[w.pos:], err
		}
	}
	return w.buf[w.pos : w.pos+n : w.pos+n], nil
}

// Advance consumes n bytes, which a Peek must have returned.
func (w *Window) Advance(n int) { w.pos += n }

// fill reads until n unread bytes are buffered. It is entered with
// fewer than n unread — less than one record — so moving them to the
// front of the buffer first is cheap and leaves the largest possible
// read; transient errors are retried here per policy.
func (w *Window) fill(n int) error {
	if w.r == nil {
		return endOfStream(len(w.buf) - w.pos)
	}
	unread := w.buf[w.pos:]
	if n > cap(w.buf) {
		w.buf = make([]byte, len(unread), (n+windowSize-1)/windowSize*windowSize)
	} else {
		w.buf = w.buf[:len(unread)]
	}
	copy(w.buf, unread)
	w.base += uint64(w.pos)
	w.pos = 0

	retries, empty := 0, 0
	for len(w.buf) < n {
		m, err := w.r.Read(w.buf[len(w.buf):cap(w.buf)])
		w.buf = w.buf[:len(w.buf)+m]
		switch {
		case m > 0:
			// Progress; an error that came with the bytes recurs on the
			// next read if they were not enough.
			retries, empty = 0, 0
		case err == nil:
			if empty++; empty >= maxEmptyReads {
				return io.ErrNoProgress
			}
		case retries < w.Pol.MaxRetries && IsTransient(err):
			retries++
			w.Stats.TransientRetries++
			w.Pol.Wait(retries)
		case errors.Is(err, io.EOF):
			return endOfStream(len(w.buf))
		default:
			return err
		}
	}
	return nil
}

// endOfStream is the error for a stream that ended with `left` unread
// bytes where more were wanted.
func endOfStream(left int) error {
	if left == 0 {
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// Resync recovers from a corrupt record at the current offset. It scans
// forward for the next offset where b.Plausible accepts a header AND
// the record it frames is followed by another plausible header or the
// end of the stream — double confirmation keeps random garbage from
// masquerading as a boundary — consuming the scanned bytes as it goes,
// so memory stays bounded on arbitrarily long damaged spans. On success
// the window is left at the accepted boundary, the skipped span is
// accounted in Stats and nil is returned; io.EOF means the stream ended
// without another boundary (torn tail — the span to the end is
// accounted the same way). Any read error ends the scan like EOF: a
// damaged span is already being skipped, and whatever was readable is
// all there is to salvage.
func (w *Window) Resync(b Boundary) error {
	w.Stats.CorruptRecords++
	w.Stats.ResyncScans++
	var skipped uint64
	account := func() {
		w.Stats.SalvagedBytes += skipped
		w.Stats.MaxLostRecords += skipped/uint64(b.HdrLen) + 1
	}
	for {
		// The corrupt record's own start is never a candidate: skipping
		// at least one byte guarantees progress.
		w.Advance(1)
		skipped++
		hdr, _ := w.Peek(b.HdrLen)
		if len(hdr) < b.HdrLen {
			skipped += uint64(len(hdr))
			w.Advance(len(hdr))
			account()
			return io.EOF
		}
		n, ok := b.Plausible(hdr)
		if !ok {
			continue
		}
		rec, _ := w.Peek(n + b.HdrLen)
		// A record that fits with less than a header after it ends the
		// stream; trailing junk surfaces as its own torn-tail span.
		confirmed := len(rec) >= n
		if len(rec) == n+b.HdrLen {
			_, confirmed = b.Plausible(rec[n:])
		}
		if confirmed {
			account()
			return nil
		}
	}
}
