package capture

import (
	"bufio"
	"io"

	"quicsand/internal/telescope"
)

// writer is the one capture writer, for both container formats: it
// owns the file header, the sticky first error and the Sink surface; a
// format contributes its header bytes and its record encode (qsnd.go,
// pcap.go). Write errors are sticky: the first underlying failure (e.g.
// a full disk) is retained, every later Write fails fast with it, and
// Flush/Err report it — callers on the fire-and-forget Capture path
// must check Err (or Flush) before trusting the file.
type writer struct {
	w       *bufio.Writer
	format  Format
	wrote   bool   // the file header is out
	n       uint64 // records written
	off     uint64 // bytes emitted so far (error annotation)
	dropped uint64
	err     error
	// buf is the reused record scratch (a QSND record header, a whole
	// pcap frame), so the hot path allocates nothing.
	buf []byte
}

// newWriter writes format f to w.
func newWriter(w io.Writer, f Format) *writer {
	return &writer{w: bufio.NewWriterSize(w, 1<<16), format: f, buf: make([]byte, 0, 2048)}
}

// Write appends one packet record.
func (w *writer) Write(p *telescope.Packet) error {
	if w.err != nil {
		return w.err
	}
	if err := w.write(p); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

func (w *writer) write(p *telescope.Packet) error {
	if err := w.writeHeader(); err != nil {
		return err
	}
	var n int
	var err error
	if w.format == FormatPcap {
		n, err = w.pcapRecord(p)
	} else {
		n, err = w.qsndRecord(p)
	}
	w.off += uint64(n)
	return err
}

// writeHeader emits the file header once.
func (w *writer) writeHeader() error {
	if w.wrote {
		return nil
	}
	var hdr []byte
	if w.format == FormatPcap {
		hdr = appendPcapHeader(w.buf[:0])
	} else {
		hdr = appendQSNDHeader(w.buf[:0])
	}
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	w.off += uint64(len(hdr))
	w.wrote = true
	return nil
}

// Capture implements telescope.Sink. Errors are retained (see Err);
// records offered after a failure are counted in Dropped.
func (w *writer) Capture(p *telescope.Packet) {
	if w.err != nil {
		w.dropped++
		return
	}
	_ = w.Write(p)
}

// Count returns records written so far.
func (w *writer) Count() uint64 { return w.n }

// Dropped returns the records Capture discarded after the first error.
func (w *writer) Dropped() uint64 { return w.dropped }

// Err returns the first write error, or nil.
func (w *writer) Err() error { return w.err }

// Flush drains buffered output and reports the first error of the
// whole write sequence. An empty capture still gets a valid file
// header, so a zero-record capture reopens cleanly.
func (w *writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.writeHeader(); err != nil {
		w.err = err
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
	}
	return w.err
}
