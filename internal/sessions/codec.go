package sessions

import (
	"slices"
	"time"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// This file is the sessionizer's half of the streaming-checkpoint
// contract: deep clones (so a live Streamer can snapshot shard state
// without stopping ingest) and a ckpt codec that round-trips every
// field — including whether each anatomy set still lives in its
// inline arm or has spilled to a map, because the spill state feeds
// the SetSpills counter and must survive a checkpoint→resume cycle
// bit-exactly.

// Decode size limits. Sessions are bounded by what one month of
// telescope traffic can produce; anything past these is a malformed
// checkpoint, not a big run.
const (
	maxSetItems   = 1 << 24
	maxSCIDBytes  = 255
	maxActiveSess = 1 << 26
)

// Clone returns a deep copy of the session: the value fields are
// copied wholesale and any spilled anatomy maps are duplicated.
func (s *Session) Clone() *Session {
	c := *s
	if s.versions.m != nil {
		c.versions.m = make(map[wire.Version]int, len(s.versions.m))
		for k, v := range s.versions.m {
			c.versions.m[k] = v
		}
	}
	if s.scids.m != nil {
		c.scids.m = make(map[string]struct{}, len(s.scids.m))
		for k := range s.scids.m {
			c.scids.m[k] = struct{}{}
		}
	}
	if s.peerAddrs.m != nil {
		c.peerAddrs.m = make(map[netmodel.Addr]struct{}, len(s.peerAddrs.m))
		for k := range s.peerAddrs.m {
			c.peerAddrs.m[k] = struct{}{}
		}
	}
	if s.peerPorts.m != nil {
		c.peerPorts.m = make(map[uint16]struct{}, len(s.peerPorts.m))
		for k := range s.peerPorts.m {
			c.peerPorts.m[k] = struct{}{}
		}
	}
	return &c
}

// EncodeSession writes one session. Inline set arms keep their
// insertion order; spilled maps are written sorted so equal states
// encode to equal bytes.
func EncodeSession(w *ckpt.Writer, s *Session) {
	w.U64(uint64(s.Src))
	w.I64(int64(s.Start))
	w.I64(int64(s.End))
	w.U64(uint64(s.Packets))
	w.U64(uint64(s.Requests))
	w.U64(uint64(s.Responses))
	w.U64(s.Bytes)
	for _, n := range s.TypeCounts {
		w.U64(uint64(n))
	}

	// versions
	if s.versions.m != nil {
		w.Bool(true)
		keys := make([]wire.Version, 0, len(s.versions.m))
		for v := range s.versions.m {
			keys = append(keys, v)
		}
		slices.Sort(keys)
		w.U64(uint64(len(keys)))
		for _, v := range keys {
			w.U64(uint64(v))
			w.U64(uint64(s.versions.m[v]))
		}
	} else {
		w.Bool(false)
		w.U64(uint64(s.versions.n))
		for i := uint8(0); i < s.versions.n; i++ {
			w.U64(uint64(s.versions.vs[i]))
			w.U64(uint64(s.versions.ns[i]))
		}
	}

	// scids
	if s.scids.m != nil {
		w.Bool(true)
		keys := make([]string, 0, len(s.scids.m))
		for k := range s.scids.m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		w.U64(uint64(len(keys)))
		for _, k := range keys {
			w.String(k)
		}
	} else {
		w.Bool(false)
		w.U64(uint64(s.scids.n))
		for i := uint8(0); i < s.scids.n; i++ {
			w.String(s.scids.inline[i])
		}
	}

	// peerAddrs
	if s.peerAddrs.m != nil {
		w.Bool(true)
		keys := make([]netmodel.Addr, 0, len(s.peerAddrs.m))
		for k := range s.peerAddrs.m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		w.U64(uint64(len(keys)))
		for _, k := range keys {
			w.U64(uint64(k))
		}
	} else {
		w.Bool(false)
		w.U64(uint64(s.peerAddrs.n))
		for i := uint8(0); i < s.peerAddrs.n; i++ {
			w.U64(uint64(s.peerAddrs.inline[i]))
		}
	}

	// peerPorts
	if s.peerPorts.m != nil {
		w.Bool(true)
		keys := make([]uint16, 0, len(s.peerPorts.m))
		for k := range s.peerPorts.m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		w.U64(uint64(len(keys)))
		for _, k := range keys {
			w.U64(uint64(k))
		}
	} else {
		w.Bool(false)
		w.U64(uint64(s.peerPorts.n))
		for i := uint8(0); i < s.peerPorts.n; i++ {
			w.U64(uint64(s.peerPorts.inline[i]))
		}
	}

	w.I64(s.curMinute)
	w.U64(uint64(s.curCount))
	w.U64(uint64(s.maxPerMin))
	w.U64(uint64(s.hasCH))
	w.U64(uint64(s.totalQUICPk))
}

// DecodeSession reads one session. On malformed input it returns nil
// and leaves the reader's sticky error set.
func DecodeSession(r *ckpt.Reader) *Session {
	s := &Session{}
	s.Src = netmodel.Addr(r.U64())
	s.Start = telescope.Timestamp(r.I64())
	s.End = telescope.Timestamp(r.I64())
	s.Packets = r.Int(maxSetItems)
	s.Requests = r.Int(maxSetItems)
	s.Responses = r.Int(maxSetItems)
	s.Bytes = r.U64()
	for i := range s.TypeCounts {
		s.TypeCounts[i] = r.Int(maxSetItems)
	}

	if r.Bool() { // versions spilled
		n := r.Int(maxSetItems)
		if r.Err() == nil {
			s.versions.m = make(map[wire.Version]int, n)
			for i := 0; i < n && r.Err() == nil; i++ {
				v := wire.Version(r.U64())
				s.versions.m[v] = r.Int(maxSetItems)
			}
		}
	} else {
		n := r.Int(len(s.versions.vs))
		s.versions.n = uint8(n)
		for i := 0; i < n; i++ {
			s.versions.vs[i] = wire.Version(r.U64())
			s.versions.ns[i] = r.Int(maxSetItems)
		}
	}

	if r.Bool() { // scids spilled
		n := r.Int(maxSetItems)
		if r.Err() == nil {
			s.scids.m = make(map[string]struct{}, min(n, 4096))
			for i := 0; i < n && r.Err() == nil; i++ {
				s.scids.m[r.String(maxSCIDBytes)] = struct{}{}
			}
		}
	} else {
		n := r.Int(len(s.scids.inline))
		s.scids.n = uint8(n)
		for i := 0; i < n; i++ {
			s.scids.inline[i] = r.String(maxSCIDBytes)
		}
	}

	if r.Bool() { // peerAddrs spilled
		n := r.Int(maxSetItems)
		if r.Err() == nil {
			s.peerAddrs.m = make(map[netmodel.Addr]struct{}, min(n, 4096))
			for i := 0; i < n && r.Err() == nil; i++ {
				s.peerAddrs.m[netmodel.Addr(r.U64())] = struct{}{}
			}
		}
	} else {
		n := r.Int(len(s.peerAddrs.inline))
		s.peerAddrs.n = uint8(n)
		for i := 0; i < n; i++ {
			s.peerAddrs.inline[i] = netmodel.Addr(r.U64())
		}
	}

	if r.Bool() { // peerPorts spilled
		n := r.Int(maxSetItems)
		if r.Err() == nil {
			s.peerPorts.m = make(map[uint16]struct{}, min(n, 4096))
			for i := 0; i < n && r.Err() == nil; i++ {
				s.peerPorts.m[uint16(r.U64())] = struct{}{}
			}
		}
	} else {
		n := r.Int(len(s.peerPorts.inline))
		s.peerPorts.n = uint8(n)
		for i := 0; i < n; i++ {
			s.peerPorts.inline[i] = uint16(r.U64())
		}
	}

	s.curMinute = r.I64()
	s.curCount = r.Int(maxSetItems)
	s.maxPerMin = r.Int(maxSetItems)
	s.hasCH = r.Int(maxSetItems)
	s.totalQUICPk = r.Int(maxSetItems)
	if r.Err() != nil {
		return nil
	}
	return s
}

// Clone returns a deep copy of the sessionizer with its Emit and
// GapRecorder rewired (function values cannot be meaningfully cloned;
// the caller decides where the copy's emissions go).
func (sz *Sessionizer) Clone(emit func(*Session), gaps func(time.Duration)) *Sessionizer {
	c := &Sessionizer{
		Timeout:     sz.Timeout,
		Emit:        emit,
		GapRecorder: gaps,
		MaxActive:   sz.MaxActive,
		lastSweep:   sz.lastSweep,
		Emitted:     sz.Emitted,
		Metrics:     sz.Metrics,
		active:      make(map[netmodel.Addr]*Session, len(sz.active)),
	}
	for src, s := range sz.active {
		c.active[src] = s.Clone()
	}
	if sz.lastSeen != nil {
		c.lastSeen = make(map[netmodel.Addr]telescope.Timestamp, len(sz.lastSeen))
		for src, ts := range sz.lastSeen {
			c.lastSeen[src] = ts
		}
	}
	return c
}

// EncodeTo writes the sessionizer's full state (minus the Emit and
// GapRecorder hooks, which are runtime wiring).
func (sz *Sessionizer) EncodeTo(w *ckpt.Writer) {
	w.I64(int64(sz.Timeout))
	w.U64(uint64(sz.MaxActive))
	w.I64(int64(sz.lastSweep))
	w.U64(uint64(sz.Emitted))
	m := &sz.Metrics
	w.U64(m.Emitted)
	w.U64(m.TimeoutSplits)
	w.U64(m.SweepEvicted)
	w.U64(m.FlushEmitted)
	w.U64(m.BudgetEvicted)
	w.U64(m.SetSpills)

	srcs := make([]netmodel.Addr, 0, len(sz.active))
	for src := range sz.active {
		srcs = append(srcs, src)
	}
	slices.Sort(srcs)
	w.U64(uint64(len(srcs)))
	for _, src := range srcs {
		EncodeSession(w, sz.active[src])
	}

	// The last-seen table as the format has always stored it: one entry
	// per source ever observed. A source with an active session was last
	// seen at that session's End (its lastSeen entry, if any, is stale).
	if sz.lastSeen == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		seen := append(make([]netmodel.Addr, 0, len(srcs)+len(sz.lastSeen)), srcs...)
		for src := range sz.lastSeen {
			if _, active := sz.active[src]; !active {
				seen = append(seen, src)
			}
		}
		slices.Sort(seen)
		w.U64(uint64(len(seen)))
		for _, src := range seen {
			ts := sz.lastSeen[src]
			if s := sz.active[src]; s != nil {
				ts = s.End
			}
			w.U64(uint64(src))
			w.I64(int64(ts))
		}
	}
}

// DecodeSessionizer reads a sessionizer encoded by EncodeTo, wiring
// the given Emit and GapRecorder hooks into the result. Returns nil on
// malformed input (reader error set).
func DecodeSessionizer(r *ckpt.Reader, emit func(*Session), gaps func(time.Duration)) *Sessionizer {
	sz := &Sessionizer{Emit: emit, GapRecorder: gaps}
	sz.Timeout = time.Duration(r.I64())
	sz.MaxActive = r.Int(maxActiveSess)
	sz.lastSweep = telescope.Timestamp(r.I64())
	sz.Emitted = r.Int(maxActiveSess)
	m := &sz.Metrics
	m.Emitted = r.U64()
	m.TimeoutSplits = r.U64()
	m.SweepEvicted = r.U64()
	m.FlushEmitted = r.U64()
	m.BudgetEvicted = r.U64()
	m.SetSpills = r.U64()

	n := r.Int(maxActiveSess)
	if r.Err() != nil {
		return nil
	}
	sz.active = make(map[netmodel.Addr]*Session, min(n, 4096))
	for i := 0; i < n; i++ {
		s := DecodeSession(r)
		if s == nil {
			return nil
		}
		if _, dup := sz.active[s.Src]; dup {
			r.Errorf("duplicate active session for source %d", uint32(s.Src))
			return nil
		}
		sz.active[s.Src] = s
	}

	if r.Bool() {
		n := r.Int(maxActiveSess)
		if r.Err() != nil {
			return nil
		}
		sz.lastSeen = make(map[netmodel.Addr]telescope.Timestamp, min(n, 4096))
		for i := 0; i < n; i++ {
			src := netmodel.Addr(r.U64())
			sz.lastSeen[src] = telescope.Timestamp(r.I64())
		}
	}
	if r.Err() != nil {
		return nil
	}
	return sz
}

// Clone returns a deep copy of the sweep accumulator.
func (t *TimeoutSweep) Clone() *TimeoutSweep {
	c := *t
	c.Sources = make(map[netmodel.Addr]struct{}, len(t.Sources))
	for a := range t.Sources {
		c.Sources[a] = struct{}{}
	}
	return &c
}

// EncodeTo writes the sweep state with sources sorted.
func (t *TimeoutSweep) EncodeTo(w *ckpt.Writer) {
	for _, n := range t.gapMinutes {
		w.U64(n)
	}
	w.U64(t.over60)
	srcs := make([]netmodel.Addr, 0, len(t.Sources))
	for a := range t.Sources {
		srcs = append(srcs, a)
	}
	slices.Sort(srcs)
	w.U64(uint64(len(srcs)))
	for _, a := range srcs {
		w.U64(uint64(a))
	}
}

// DecodeTimeoutSweep reads a sweep encoded by EncodeTo. Returns nil on
// malformed input (reader error set).
func DecodeTimeoutSweep(r *ckpt.Reader) *TimeoutSweep {
	t := NewTimeoutSweep()
	for i := range t.gapMinutes {
		t.gapMinutes[i] = r.U64()
	}
	t.over60 = r.U64()
	n := r.Int(maxActiveSess)
	if r.Err() != nil {
		return nil
	}
	for i := 0; i < n; i++ {
		t.Sources[netmodel.Addr(r.U64())] = struct{}{}
	}
	if r.Err() != nil {
		return nil
	}
	return t
}
