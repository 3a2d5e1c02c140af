package capture

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// mapping is the munmap a reader laid over OpenFile's mapping owns. The
// zero value — a streamed or in-memory source — closes to nothing.
type mapping struct{ unmap func() error }

// Close releases the mapping; every call after the first does nothing.
// Spans, packets and payloads handed out earlier alias the mapped pages
// — the caller must be done with the analysis before closing.
func (m *mapping) Close() error {
	if m.unmap == nil {
		return nil
	}
	u := m.unmap
	m.unmap = nil
	return u()
}

// OpenFile opens a capture file as a Source, choosing from what it
// observes about f how the reader gets its bytes. A
// regular file of either container is memory-mapped: framing becomes
// offset arithmetic, spans and payloads alias the page cache, nothing
// is read or copied on ingest. Anything else — a pipe, a device, a
// platform without mmap, a mapping the kernel refuses — streams through
// NewSource against the file, with identical packets, errors, offsets
// and salvage accounting (one framer, DESIGN.md §16).
//
// The returned Source is an io.Closer: the caller closes it once the
// analysis is done, which releases the mapping — every span, packet and
// payload handed out until then aliases it and must not be touched
// afterwards. Closing f itself remains the caller's job and is safe
// immediately after OpenFile returns for a mapped file; a streamed
// source reads from f until it is drained. A mapped file must not be
// truncated while it is being replayed (the kernel delivers SIGBUS for
// pages past the new end), and records appended after the open are not
// seen: the mapping covers the size the file had then.
func OpenFile(f *os.File) (Source, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return NewSource(f) // not seekable, no size: nothing to sniff or map
	}
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("capture: empty stream: %w", ErrUnknownFormat)
		}
		return nil, err
	}
	format := sniffFormat(magic[:])
	if format == FormatUnknown {
		return nil, ErrUnknownFormat
	}
	if st.Size() > math.MaxInt {
		return NewSource(f)
	}
	data, unmap, err := mapFile(f, int(st.Size()))
	if err != nil {
		return NewSource(f) // mapping unavailable (platform, filesystem): stream
	}
	r, err := newReader(newSliceWindow(data), format)
	if err != nil {
		_ = unmap() // the header error is the one to report
		return nil, err
	}
	r.mapping = mapping{unmap}
	return r, nil
}
