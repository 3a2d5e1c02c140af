package capture

import (
	"io"

	"quicsand/internal/telescope"
)

// Limit returns a Source that yields at most n records from src, then
// reports a clean io.EOF. Like Skip it is a Next-only helper for
// sequential consumers — Copy, a Streamer's Offer loop, a one-worker
// replay; to replay a prefix sharded, Copy it into a capture first.
func Limit(src Source, n uint64) Source {
	return &limitSource{src: src, left: n}
}

type limitSource struct {
	src  Source
	left uint64
}

func (l *limitSource) Next() (*telescope.Packet, error) {
	if l.left == 0 {
		return nil, io.EOF
	}
	p, err := l.src.Next()
	if err != nil {
		return nil, err
	}
	l.left--
	return p, nil
}

// Skip returns a Source positioned n records into src: the first n
// records are read and discarded, then reads pass through. Resuming a
// checkpointed stream drives the remainder of a stored capture through
// Skip(src, checkpoint.Position()).
func Skip(src Source, n uint64) Source {
	return &skipSource{src: src, skip: n}
}

type skipSource struct {
	src  Source
	skip uint64
}

func (s *skipSource) Next() (*telescope.Packet, error) {
	for s.skip > 0 {
		if _, err := s.src.Next(); err != nil {
			return nil, err
		}
		s.skip--
	}
	return s.src.Next()
}
