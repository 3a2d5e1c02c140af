package capture

import (
	"errors"
	"io"
	"time"
)

// Degraded ingest (DESIGN.md §14): the policy, the ledger and the byte
// window the reader frames through, which lets a capture survive torn
// tails from crashed recorders, bit-flips from disk, short reads and
// transient EAGAIN-class errors from network filesystems instead of
// aborting on the first bad byte. The window knows nothing of record
// formats: the reader peeks at unread bytes, advances only past a
// complete, validated record, and hands the window its format's
// boundary probe when a record fails to parse.

// SalvagePolicy selects how a reader reacts to damaged or failing input.
// The zero value is fail-fast: the first corruption or exhausted read is
// a terminal error.
type SalvagePolicy struct {
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
func (p SalvagePolicy) Enabled() bool { return p.SkipCorrupt || p.MaxRetries > 0 }

// wait sleeps the exponential backoff for the given 1-based attempt.
func (p SalvagePolicy) wait(attempt int) {
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

// SalvageStats is the skipped-record ledger of one salvaged stream. All
// fields are zero on an undamaged input, so enabling salvage on clean
// files changes nothing observable.
type SalvageStats struct {
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

// isTransient reports whether err (or anything it wraps) declares itself
// temporary, in the net.Error tradition: EAGAIN-class failures from
// network filesystems and the fault injector do. The reader never
// imports the fault layer — the method is the entire contract.
func isTransient(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// boundary is a format's record-framing probe for resync scans.
type boundary struct {
	// hdrLen is the fixed record-header size — also the minimum record
	// size, which bounds how many records a skipped span can have
	// destroyed.
	hdrLen int
	// plausible inspects hdrLen candidate bytes and, if they could start
	// a record, returns the full record length (header + body).
	plausible func(hdr []byte) (recLen int, ok bool)
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

// window is the byte window the reader frames through: the unread bytes
// of a stream, inspected with peek and consumed with advance. A record
// is validated entirely on peeked bytes and consumed only when
// complete, so a record that fails validation has consumed nothing and
// resync starts from its first byte — there is no push-back buffer and
// no copy of "bytes already read" to rescan.
//
// One struct serves both arrivals. newWindow slides over an io.Reader:
// a buffer that compacts on fill, grows to the largest record seen and
// retries Temporary() errors per pol. newSliceWindow is the same struct
// already full and at end of stream — the memory-mapped case: it never
// reads or moves bytes, so the spans it hands out are stable.
type window struct {
	pol   SalvagePolicy
	stats SalvageStats

	r    io.Reader // nil for a slice window: buf is the whole stream
	buf  []byte    // buf[pos:] is the unread window
	pos  int
	base uint64 // stream offset of buf[0]
}

// newWindow returns a sliding window over r.
func newWindow(r io.Reader) *window {
	return &window{r: r, buf: make([]byte, 0, windowSize)}
}

// newSliceWindow returns a window over data, which holds the whole
// stream and must stay alive and unmodified while spans are in use.
func newSliceWindow(data []byte) *window { return &window{buf: data} }

// stable reports whether slices returned by peek stay valid for the
// window's lifetime (slice windows) or only until the next peek or
// resync (stream windows, whose buffer compacts and grows).
func (w *window) stable() bool { return w.r == nil }

// offset returns the stream position of the next unread byte. A failed
// peek consumes nothing, so after a framing error — corruption or an
// I/O error alike — this is still the start of the record being read.
func (w *window) offset() uint64 { return w.base + uint64(w.pos) }

// peek returns the next n unread bytes without consuming them. When the
// stream cannot supply n it returns the bytes there are and why, with
// io.ReadFull's contract: io.EOF only when none are left,
// io.ErrUnexpectedEOF after a partial fill; other read errors pass
// through unchanged and leave the bytes buffered, so a later peek
// retries the read.
func (w *window) peek(n int) ([]byte, error) {
	if len(w.buf)-w.pos < n {
		if err := w.fill(n); err != nil {
			return w.buf[w.pos:], err
		}
	}
	return w.buf[w.pos : w.pos+n : w.pos+n], nil
}

// advance consumes n bytes, which a peek must have returned.
func (w *window) advance(n int) { w.pos += n }

// fill reads until n unread bytes are buffered. It is entered with
// fewer than n unread — less than one record — so moving them to the
// front of the buffer first is cheap and leaves the largest possible
// read; transient errors are retried here per policy, the one retry
// budget whoever drives the reader.
func (w *window) fill(n int) error {
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
		case retries < w.pol.MaxRetries && isTransient(err):
			retries++
			w.stats.TransientRetries++
			w.pol.wait(retries)
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

// resync recovers from a corrupt record at the current offset. It scans
// forward for the next offset where b.plausible accepts a header AND
// the record it frames is followed by another plausible header or the
// end of the stream — double confirmation keeps random garbage from
// masquerading as a boundary — consuming the scanned bytes as it goes,
// so memory stays bounded on arbitrarily long damaged spans. On success
// the window is left at the accepted boundary, the skipped span is
// accounted in stats and nil is returned; io.EOF means the stream ended
// without another boundary (torn tail — the span to the end is
// accounted the same way). Any read error ends the scan like EOF: a
// damaged span is already being skipped, and whatever was readable is
// all there is to salvage.
func (w *window) resync(b boundary) error {
	w.stats.CorruptRecords++
	w.stats.ResyncScans++
	var skipped uint64
	account := func() {
		w.stats.SalvagedBytes += skipped
		w.stats.MaxLostRecords += skipped/uint64(b.hdrLen) + 1
	}
	for {
		// The corrupt record's own start is never a candidate: skipping
		// at least one byte guarantees progress.
		w.advance(1)
		skipped++
		hdr, _ := w.peek(b.hdrLen)
		if len(hdr) < b.hdrLen {
			skipped += uint64(len(hdr))
			w.advance(len(hdr))
			account()
			return io.EOF
		}
		n, ok := b.plausible(hdr)
		if !ok {
			continue
		}
		rec, _ := w.peek(n + b.hdrLen)
		// A record that fits with less than a header after it ends the
		// stream; trailing junk surfaces as its own torn-tail span.
		confirmed := len(rec) >= n
		if len(rec) == n+b.hdrLen {
			_, confirmed = b.plausible(rec[n:])
		}
		if confirmed {
			account()
			return nil
		}
	}
}
