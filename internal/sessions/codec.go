package sessions

import (
	"cmp"
	"maps"
	"slices"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// This file is the sessionizer's half of the streaming-checkpoint
// contract (QCKP v3). A session has two encodings that share its
// answers' codec: a finished session, as the session log holds it, is
// its answers and its three anatomy set sizes — all that Figure 9 and
// the attack anatomy read of it — and an open session, in the
// sessionizer's state, is its answers so far, its sets and its open
// minute slot, because a resumed sessionizer goes on adding to them. A
// set or histogram is its entry count and entries, and decoding adds
// the entries back one by one, so it spills exactly when the original
// had (past its inline capacity: the spill state feeds SetSpills) and
// duplicate keys count once. A checkpoint tick encodes the live state
// on the shard's own goroutine, and both a checkpoint's Analysis and a
// resumed streamer decode it, so the image is the only frozen form a
// sessionizer has.

// Decode size limits. Sessions are bounded by what one month of
// telescope traffic can produce; anything past these is a malformed
// checkpoint, not a big run.
const (
	maxSetItems   = 1 << 24
	maxSCIDBytes  = 255
	maxActiveSess = 1 << 26
)

// encodeAnswers writes what a session answers: the fixed fields (End as
// its offset from Start), the version histogram and the rate and
// message-mix counts. Inline arms keep their insertion order here and
// below; spilled ones are written sorted, so equal states encode to
// equal bytes.
func encodeAnswers(w *ckpt.Writer, s *Session) {
	w.U64(uint64(s.Src))
	w.I64(int64(s.Start))
	w.U64(uint64(s.End - s.Start))
	w.U64(uint64(s.Packets))
	w.U64(uint64(s.Requests))
	w.U64(uint64(s.Responses))
	w.U64(s.Bytes)
	for _, n := range s.TypeCounts {
		w.U64(uint64(n))
	}
	if c := &s.versions; c.m != nil {
		w.U64(uint64(len(c.m)))
		for _, v := range slices.Sorted(maps.Keys(c.m)) {
			w.U64(uint64(v))
			w.U64(uint64(c.m[v]))
		}
	} else {
		w.U64(uint64(c.n))
		for i := range c.n {
			w.U64(uint64(c.vs[i]))
			w.U64(uint64(c.ns[i]))
		}
	}
	w.U64(uint64(s.maxPerMin))
	w.U64(uint64(s.hasCH))
	w.U64(uint64(s.totalQUICPk))
}

// decodeAnswers reads what encodeAnswers wrote into s. On malformed
// input the reader's error is set.
func decodeAnswers(r *ckpt.Reader, s *Session) {
	s.Src = netmodel.Addr(r.U64())
	s.Start = telescope.Timestamp(r.I64())
	s.End = s.Start + telescope.Timestamp(r.U64())
	s.Packets = r.Int(maxSetItems)
	s.Requests = r.Int(maxSetItems)
	s.Responses = r.Int(maxSetItems)
	s.Bytes = r.U64()
	for i := range s.TypeCounts {
		s.TypeCounts[i] = r.Int(maxSetItems)
	}
	for i, n := 0, r.Int(maxSetItems); i < n && r.Err() == nil; i++ {
		v := wire.Version(r.U64())
		s.versions.add(v, r.Int(maxSetItems))
	}
	s.maxPerMin = r.Int(maxSetItems)
	s.hasCH = r.Int(maxSetItems)
	s.totalQUICPk = r.Int(maxSetItems)
}

// encodeFinished writes a finished session as the session log holds it:
// its answers and its three set sizes.
func encodeFinished(w *ckpt.Writer, s *Session) {
	encodeAnswers(w, s)
	w.U64(uint64(s.nSCIDs))
	w.U64(uint64(s.nPeerAddrs))
	w.U64(uint64(s.nPeerPorts))
}

// DecodeFinished reads n finished sessions, as a session log holds them,
// straight into their answers, held by value. On malformed input it
// stops early with the reader's sticky error set.
func DecodeFinished(r *ckpt.Reader, n int) []Session {
	list := make([]Session, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		list = append(list, Session{})
		s := &list[len(list)-1]
		decodeAnswers(r, s)
		s.nSCIDs = uint32(r.Int(maxSetItems))
		s.nPeerAddrs = uint32(r.Int(maxSetItems))
		s.nPeerPorts = uint32(r.Int(maxSetItems))
		if r.Err() != nil {
			return list[:len(list)-1]
		}
	}
	return list
}

// encodeLive writes an open session: its answers so far, its SCID, peer
// address and peer port sets, and its open minute slot.
func encodeLive(w *ckpt.Writer, e *live) {
	encodeAnswers(w, &e.s)
	arena := e.scids.arena
	w.U64(uint64(e.scids.count()))
	if e.scids.t != nil {
		for _, off := range e.scids.sortedOffsets() {
			w.Bytes8(scidAt(arena, off))
		}
	} else {
		for off := 0; off < len(arena); off += 1 + int(arena[off]) {
			w.Bytes8(scidAt(arena, off))
		}
	}
	encodeSmallSet(w, &e.peerAddrs)
	encodeSmallSet(w, &e.peerPorts)
	w.I64(e.curMinute)
	w.U64(uint64(e.curCount))
}

// decodeLive reads an open session into e, whose sets must be empty, and
// reports whether the input was well formed (else the reader's error is
// set).
func decodeLive(r *ckpt.Reader, e *live) bool {
	decodeAnswers(r, &e.s)
	for i, n := 0, r.Int(maxSetItems); i < n && r.Err() == nil; i++ {
		if b := r.Bytes8(maxSCIDBytes); r.Err() == nil {
			e.scids.add(b)
		}
	}
	decodeSmallSet(r, &e.peerAddrs)
	decodeSmallSet(r, &e.peerPorts)
	e.curMinute = r.I64()
	e.curCount = r.Int(maxSetItems)
	return r.Err() == nil
}

// encodeSmallSet writes a peer address or port set: its size, then the
// inline keys in insertion order or the spilled keys sorted.
func encodeSmallSet[K intKey](w *ckpt.Writer, s *smallSet[K]) {
	keys := s.inline[:s.n]
	if s.t != nil {
		keys = s.t.sortedKeys()
	}
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.U64(uint64(k))
	}
}

// decodeSmallSet reads what encodeSmallSet wrote into s.
func decodeSmallSet[K intKey](r *ckpt.Reader, s *smallSet[K]) {
	for i, n := 0, r.Int(maxSetItems); i < n && r.Err() == nil; i++ {
		s.add(K(r.U64()))
	}
}

// EncodeTo writes the sessionizer's state: its sweep cursor, its
// counters and its open sessions by source. The Emit, GapRecorder and
// Log hooks are runtime wiring and Timeout and MaxActive are
// configuration, so none is written.
func (sz *Sessionizer) EncodeTo(w *ckpt.Writer) {
	w.I64(int64(sz.lastSweep))
	m := &sz.Metrics
	w.U64(m.Emitted)
	w.U64(m.TimeoutSplits)
	w.U64(m.SweepEvicted)
	w.U64(m.FlushEmitted)
	w.U64(m.BudgetEvicted)
	w.U64(m.SetSpills)

	active := sz.active.AppendValues(make([]live, 0, sz.active.Len()))
	sortBySrc(active)
	w.U64(uint64(len(active)))
	for i := range active {
		encodeLive(w, &active[i])
	}
}

// DecodeSessionizer reads a sessionizer encoded by EncodeTo into one
// built as NewSessionizer(nil) builds it, for the caller to configure
// and chain. Returns nil on malformed input (reader error set).
func DecodeSessionizer(r *ckpt.Reader) *Sessionizer {
	sz := NewSessionizer(nil)
	sz.lastSweep = telescope.Timestamp(r.I64())
	m := &sz.Metrics
	m.Emitted = uint64(r.Int(maxActiveSess))
	m.TimeoutSplits = r.U64()
	m.SweepEvicted = r.U64()
	m.FlushEmitted = r.U64()
	m.BudgetEvicted = r.U64()
	m.SetSpills = r.U64()

	n := r.Int(maxActiveSess)
	if r.Err() != nil {
		return nil
	}
	active := make([]live, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		var e live
		if !decodeLive(r, &e) {
			return nil
		}
		active = append(active, e)
	}
	// The image lists sessions by source; put them in (End, Src) order,
	// the last-touch list's own, so the first budget eviction takes the
	// victim it would have taken before the checkpoint.
	slices.SortFunc(active, func(a, b live) int {
		return cmp.Or(cmp.Compare(a.s.End, b.s.End), cmp.Compare(a.s.Src, b.s.Src))
	})
	for _, e := range active {
		if sz.active.Lookup(e.s.Src) >= 0 {
			r.Errorf("duplicate active session for source %d", uint32(e.s.Src))
			return nil
		}
		sz.active.Put(e.s.Src, e.s.End, e)
	}
	return sz
}

// EncodeTo writes the sweep's gap histogram. A shard's sweep has no
// sources: the reduction records them from the sessions.
func (t *TimeoutSweep) EncodeTo(w *ckpt.Writer) {
	for _, n := range t.gapMinutes {
		w.U64(n)
	}
	w.U64(t.over60)
}

// DecodeTimeoutSweep reads a sweep encoded by EncodeTo. Returns nil on
// malformed input (reader error set).
func DecodeTimeoutSweep(r *ckpt.Reader) *TimeoutSweep {
	t := NewTimeoutSweep()
	for i := range t.gapMinutes {
		t.gapMinutes[i] = r.U64()
	}
	t.over60 = r.U64()
	if r.Err() != nil {
		return nil
	}
	return t
}
