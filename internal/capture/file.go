package capture

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"quicsand/internal/telescope"
)

// NewQSNDBuffer opens an in-memory QSND stream as a Source. The
// returned source frames by offset arithmetic and hands out stable
// zero-copy spans; data must stay alive and unmodified for the
// source's lifetime.
func NewQSNDBuffer(data []byte) (Source, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("capture: empty stream: %w", ErrUnknownFormat)
	}
	if len(data) < 4 || !isQSNDMagic(data) {
		return nil, ErrUnknownFormat
	}
	return &qsndSource{r: telescope.NewBuffer(data)}, nil
}

// OpenFile opens a capture file as a Source, picking the fastest path
// the container allows: QSND checkpoints are memory-mapped (framing
// becomes offset arithmetic, spans and payloads alias the page cache,
// nothing is copied on ingest), everything else — pcap, platforms
// without mmap, special files — streams through NewSource against the
// file. When the returned Source is an io.Closer the caller owns
// closing it after the analysis is done; closing f itself remains the
// caller's job either way and is safe immediately after a successful
// mmap open.
func OpenFile(f *os.File) (Source, error) {
	var magic [4]byte
	if _, err := f.ReadAt(magic[:], 0); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("capture: empty stream: %w", ErrUnknownFormat)
		}
		return nil, err
	}
	if isQSNDMagic(magic[:]) {
		if st, err := f.Stat(); err == nil && st.Size() > 0 && st.Size() <= math.MaxInt {
			if data, unmap, err := mapFile(f, int(st.Size())); err == nil {
				return &qsndSource{r: telescope.NewBuffer(data), close: unmap}, nil
			}
		}
		// Mapping unavailable (platform, filesystem, size): stream.
	}
	return NewSource(f)
}
