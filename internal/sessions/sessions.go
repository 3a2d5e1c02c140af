// Package sessions groups telescope packets into traffic sessions: all
// packets from one source IP whose inactivity gaps stay below a
// timeout (§5.1 of the paper, after Moore et al.). It also computes
// the per-session features the DoS detector thresholds on and the
// timeout-sweep view of Figure 4.
package sessions

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"quicsand/internal/ckpt"
	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/srcindex"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// DefaultTimeout is the 5-minute knee the paper selects in Figure 4.
const DefaultTimeout = 5 * time.Minute

// Kind partitions sessions by the packet classes they contain. The
// paper observes the request/response split is total: no session mixes
// both.
type Kind int

// Session kinds.
const (
	KindRequestOnly Kind = iota
	KindResponseOnly
	KindMixed
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRequestOnly:
		return "requests-only"
	case KindResponseOnly:
		return "responses-only"
	}
	return "mixed"
}

// Session is one aggregated traffic session: its answers, final once
// the sessionizer emits it. An open session's working state (the Figure
// 9 anatomy sets, the open minute slot) is the sessionizer's live entry,
// which finish folds into the counts below.
type Session struct {
	Src        netmodel.Addr
	Start, End telescope.Timestamp
	Packets    int
	Requests   int
	Responses  int
	Bytes      uint64

	// QUIC message mix (per QUIC packet seen, including coalesced).
	TypeCounts [6]int // indexed by wire.PacketType

	// Version histogram of long-header packets.
	versions versionCounts

	// Moore max-pps: the largest packet count of any 1-minute slot.
	maxPerMin   int
	hasCH       int // Initials carrying a ClientHello
	totalQUICPk int

	// Response-session anatomy (Figure 9): the sizes of the sets the open
	// session recorded from QUIC responses only, so TCP/ICMP and request
	// sessions read zero by construction.
	nSCIDs, nPeerAddrs, nPeerPorts uint32
}

// UniqueSCIDs returns the number of distinct server connection IDs
// observed in the session's responses.
func (s *Session) UniqueSCIDs() int { return int(s.nSCIDs) }

// UniquePeerAddrs returns the number of distinct peer addresses the
// session's QUIC responses went to (spoofed clients, for backscatter).
func (s *Session) UniquePeerAddrs() int { return int(s.nPeerAddrs) }

// UniquePeerPorts returns the number of distinct peer ports the
// session's QUIC responses went to.
func (s *Session) UniquePeerPorts() int { return int(s.nPeerPorts) }

// live is an open session: its answers so far and what only an open
// session needs, held by value in the sessionizer's index, so opening a
// session allocates nothing. The sets are
// inline for the tiny common case and spill, once, into exact
// open-addressing tables (table.go) for genuinely diverse sessions
// (flood backscatter fanning over dozens of spoofed tuples). Packets
// arrive time-ordered, so one (current minute, count) pair replaces a
// per-minute map.
type live struct {
	s         Session
	scids     scidSet // unique server CIDs
	peerAddrs addrSet
	peerPorts portSet
	curMinute int64
	curCount  int
}

// close folds the open minute slot and the sets' sizes into the
// session's answers, which are final after this.
func (e *live) close() {
	s := &e.s
	if e.curCount > s.maxPerMin {
		s.maxPerMin = e.curCount
	}
	e.curCount = 0
	s.nSCIDs, s.nPeerAddrs, s.nPeerPorts = uint32(e.scids.count()), uint32(e.peerAddrs.count()), uint32(e.peerPorts.count())
}

// versionCounts is a histogram over wire versions; 2021 traffic shows
// four, so the inline arm effectively never spills.
type versionCounts struct {
	vs [4]wire.Version
	ns [4]int
	n  uint8
	m  map[wire.Version]int
}

// add counts n more packets of version v.
func (c *versionCounts) add(v wire.Version, n int) {
	if c.m != nil {
		c.m[v] += n
		return
	}
	for i := uint8(0); i < c.n; i++ {
		if c.vs[i] == v {
			c.ns[i] += n
			return
		}
	}
	if int(c.n) < len(c.vs) {
		c.vs[c.n] = v
		c.ns[c.n] = n
		c.n++
		return
	}
	c.m = make(map[wire.Version]int, 2*len(c.vs))
	for i := range c.vs {
		c.m[c.vs[i]] = c.ns[i]
	}
	c.m[v] += n
}

// dominant returns the most frequent version, ties broken toward the
// smallest version value (matching the historical map-based logic).
func (c *versionCounts) dominant() wire.Version {
	var best wire.Version
	bestN := 0
	if c.m != nil {
		for v, n := range c.m {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		return best
	}
	for i := uint8(0); i < c.n; i++ {
		v, n := c.vs[i], c.ns[i]
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// Kind classifies the session.
func (s *Session) Kind() Kind {
	switch {
	case s.Requests > 0 && s.Responses > 0:
		return KindMixed
	case s.Responses > 0:
		return KindResponseOnly
	default:
		return KindRequestOnly
	}
}

// Duration returns End-Start as seconds.
func (s *Session) Duration() float64 {
	return float64(s.End-s.Start) / 1000
}

// MaxPPS is the maximum packet rate over 1-minute slots, in packets
// per second — the Moore et al. intensity metric.
func (s *Session) MaxPPS() float64 { return float64(s.maxPerMin) / 60 }

// DominantVersion returns the most frequent wire version (0 if none).
func (s *Session) DominantVersion() wire.Version {
	return s.versions.dominant()
}

// Versions returns every distinct wire version observed in the
// session's long-header packets, in no particular order — the oracle's
// version-membership check reads it (a session may only carry versions
// its scheduled events were compiled with).
func (s *Session) Versions() []wire.Version {
	if s.versions.m != nil {
		out := make([]wire.Version, 0, len(s.versions.m))
		for v := range s.versions.m {
			out = append(out, v)
		}
		return out
	}
	out := make([]wire.Version, 0, s.versions.n)
	for i := uint8(0); i < s.versions.n; i++ {
		out = append(out, s.versions.vs[i])
	}
	return out
}

// InitialShare and HandshakeShare return the fraction of QUIC packets
// of each type — §6's message-mix check (≈ 1/3 Initial, 2/3 Handshake
// for flood backscatter).
func (s *Session) InitialShare() float64 {
	if s.totalQUICPk == 0 {
		return 0
	}
	return float64(s.TypeCounts[wire.PacketTypeInitial]) / float64(s.totalQUICPk)
}

// HandshakeShare returns the Handshake-packet fraction.
func (s *Session) HandshakeShare() float64 {
	if s.totalQUICPk == 0 {
		return 0
	}
	return float64(s.TypeCounts[wire.PacketTypeHandshake]) / float64(s.totalQUICPk)
}

// Sessionizer aggregates a time-ordered packet stream into sessions.
// It is a streaming one-pass operator: memory is bounded by the number
// of sources active within one timeout window.
type Sessionizer struct {
	Timeout time.Duration
	// Emit receives completed sessions, final from then on. Sessions
	// finished together (by a sweep or Flush) arrive in source-address
	// order. The session is borrowed: the pointer is valid only for the
	// call, the contract capture.Source.Next has, because it points into
	// storage the sessionizer reuses. A consumer that keeps a session
	// copies it (NewSessionizer's argument is handed copies).
	Emit func(*Session)
	// Log, when set, receives each session as it finishes, before Emit:
	// its answers' checkpoint encoding is appended (DecodeFinished reads
	// it back), so a streaming shard keeps what it emitted as bytes only
	// (DESIGN.md §17). The writer only ever appends, and holds the bytes,
	// never the session.
	Log *ckpt.Writer

	active srcindex.Index[live]
	// lastSweep bounds the lazy expiry scan.
	lastSweep telescope.Timestamp
	// done is the scratch list of sessions a sweep or Flush finishes.
	done []live

	// GapRecorder, when set, receives every gap inside a session: the
	// time between two consecutive packets of one session, 0 < gap ≤
	// Timeout. A longer gap lies between two sessions of the source, and
	// TimeoutSweep.RecordSessions takes it from them. Set it before the
	// first Observe (on a decoded sessionizer: before the stream
	// continues).
	GapRecorder func(gap time.Duration)

	// MaxActive, when positive, is a hard budget on the active sessions
	// (daemon mode). Whenever a session opens past the budget, the
	// coldest session — smallest End, ties toward the smallest source,
	// which may be the new session itself — is force-finished and counted
	// in Metrics.BudgetEvicted. The eviction choice is deterministic for a
	// given stream, but which packets land on which sessionizer depends
	// on sharding, so budgeted runs trade the worker-count invariance
	// for bounded memory.
	MaxActive int

	// Metrics accumulates this sessionizer's counters; shard-local,
	// merged by the caller at reduce time. Emitted and SetSpills are
	// properties of the stream; the eviction-cause split (gap vs sweep
	// vs flush) depends on sweep cadence and so varies with shard count.
	Metrics telemetry.Sessions
}

// NewSessionizer creates a sessionizer with the paper's defaults. keep,
// when non-nil, receives each finished session as a copy of its own,
// which it may hold (one allocation per session); a consumer that only
// reads sessions sets Emit instead, which lends them for the call.
func NewSessionizer(keep func(*Session)) *Sessionizer {
	sz := &Sessionizer{Timeout: DefaultTimeout, active: srcindex.New[live]()}
	if keep != nil {
		sz.Emit = func(s *Session) {
			c := *s
			keep(&c)
		}
	}
	return sz
}

// Observe ingests one classified packet with its (optional)
// dissection. Packets must arrive in non-decreasing time order.
func (sz *Sessionizer) Observe(p *telescope.Packet, r *dissect.Result) {
	timeoutMS := telescope.Timestamp(sz.Timeout.Milliseconds())

	pos := sz.active.Lookup(p.Src)
	opened := pos < 0
	if !opened {
		e := sz.active.At(pos)
		if gap := p.TS - e.s.End; gap > timeoutMS {
			sz.Metrics.TimeoutSplits++
			sz.finish(e)
			sz.active.Remove(pos)
			opened = true
		} else if gap > 0 && sz.GapRecorder != nil {
			sz.GapRecorder(time.Duration(gap) * time.Millisecond)
		}
	}
	if opened {
		pos = sz.active.Put(p.Src, p.TS, live{s: Session{Src: p.Src, Start: p.TS}, curMinute: int64(p.TS) / 60000})
	} else {
		sz.active.Touch(pos, p.TS)
	}

	e := sz.active.At(pos)
	s := &e.s
	s.End = p.TS
	s.Packets++
	s.Bytes += uint64(p.Size)
	isResponse := p.IsResponse()
	if p.IsRequest() {
		s.Requests++
	} else if isResponse {
		s.Responses++
	}
	if isResponse {
		e.peerAddrs.add(p.Dst)
		e.peerPorts.add(p.DstPort)
	}
	// Time-ordered arrival means minute slots complete monotonically;
	// fold the finished slot into the running maximum.
	minute := int64(p.TS) / 60000
	if minute != e.curMinute {
		if e.curCount > s.maxPerMin {
			s.maxPerMin = e.curCount
		}
		e.curMinute = minute
		e.curCount = 0
	}
	e.curCount++

	if r != nil {
		for i := range r.Packets {
			pi := &r.Packets[i]
			if int(pi.Type) < len(s.TypeCounts) {
				s.TypeCounts[pi.Type]++
			}
			s.totalQUICPk++
			if pi.Type != wire.PacketTypeOneRTT && pi.Version != 0 {
				s.versions.add(pi.Version, 1)
			}
			if len(pi.SCID) > 0 && isResponse {
				e.scids.add(pi.SCID)
			}
			if pi.HasClientHello {
				s.hasCH++
			}
		}
	}

	// The budget evicts once the opening packet is in, so that a new
	// session that is its own victim is emitted final too. Put stamped
	// its End, so the victim is the one the packet found.
	if opened && sz.MaxActive > 0 && sz.active.Len() > sz.MaxActive {
		sz.evictColdest()
	}

	// Lazy expiry: at most once per timeout interval, sweep sources
	// whose sessions have aged out, keeping memory proportional to the
	// active-window population. They are the tail of the last-touch
	// list, so the sweep visits nothing it does not finish.
	if p.TS-sz.lastSweep > timeoutMS {
		sz.lastSweep = p.TS
		done := sz.done
		for t := sz.active.Tail(); t >= 0 && p.TS-sz.active.End(t) > timeoutMS; t = sz.active.Tail() {
			done = append(done, sz.active.Remove(t))
		}
		sz.finishAll(done, &sz.Metrics.SweepEvicted)
	}
}

// finish closes e's session, logs it when a Log is set and emits it. The
// caller drops e from the index, so what Log and Emit were lent is
// overwritten by a later session.
func (sz *Sessionizer) finish(e *live) {
	s := &e.s
	e.close()
	sz.Metrics.Emitted++
	// Spilled sets are the ones whose inline capacity overflowed into a
	// table — a stream property (same anatomy regardless of sharding).
	if e.peerAddrs.t != nil {
		sz.Metrics.SetSpills++
	}
	if e.peerPorts.t != nil {
		sz.Metrics.SetSpills++
	}
	if e.scids.t != nil {
		sz.Metrics.SetSpills++
	}
	if s.versions.m != nil {
		sz.Metrics.SetSpills++
	}
	if sz.Log != nil {
		encodeFinished(sz.Log, s)
	}
	if sz.Emit != nil {
		sz.Emit(s)
	}
}

// finishAll finishes sessions in source-address order, counting each
// in cause, so what a sweep or Flush emits never depends on table
// layout. done becomes the next batch's scratch.
func (sz *Sessionizer) finishAll(done []live, cause *uint64) {
	sortBySrc(done)
	for i := range done {
		*cause++
		sz.finish(&done[i])
	}
	clear(done)
	sz.done = done[:0]
}

// sortBySrc orders sessions by source address: the order sweeps, Flush
// and checkpoints use, so none of them depends on index layout.
func sortBySrc(list []live) {
	slices.SortFunc(list, func(a, b live) int { return cmp.Compare(a.s.Src, b.s.Src) })
}

// evictColdest force-finishes the coldest active session: smallest
// End, ties toward the smallest source address. The last-touch list
// keeps it in the tail's equal-End group, so a spoofed flood that opens
// a session on every packet pays for that group, not the active set.
func (sz *Sessionizer) evictColdest() {
	pos := sz.active.Coldest()
	sz.Metrics.BudgetEvicted++
	sz.finish(sz.active.At(pos))
	sz.active.Remove(pos)
}

// ActiveSessions returns the number of active sessions — the quantity
// MaxActive bounds.
func (sz *Sessionizer) ActiveSessions() int { return sz.active.Len() }

// Flush emits all still-active sessions (end of stream).
func (sz *Sessionizer) Flush() {
	done := sz.active.AppendValues(sz.done)
	sz.active.Reset()
	sz.finishAll(done, &sz.Metrics.FlushEmitted)
}

// TimeoutSweep reproduces Figure 4: given the gap distribution and the
// number of distinct sources, it computes the session count for each
// timeout value. sessions(T) = sources + #gaps > T, because every gap
// exceeding the timeout splits one session in two. A pipeline shard's
// sweep holds the gaps inside its sessions (Sessionizer.GapRecorder);
// the reduction adds the sources and the gaps between sessions from the
// sessions themselves (RecordSessions), so no shard keeps a per-source
// table for it.
type TimeoutSweep struct {
	// gapMinutes[i] counts gaps in (i, i+1] minutes, i ∈ [0, 60).
	gapMinutes [61]uint64
	// over60 counts gaps above an hour.
	over60  uint64
	Sources map[netmodel.Addr]struct{}
}

// NewTimeoutSweep creates an empty sweep accumulator.
func NewTimeoutSweep() *TimeoutSweep {
	return &TimeoutSweep{Sources: make(map[netmodel.Addr]struct{})}
}

// RecordSource registers a distinct source; calling it again for a
// known source changes nothing.
func (t *TimeoutSweep) RecordSource(a netmodel.Addr) {
	t.Sources[a] = struct{}{}
}

// RecordSessions records each session's source and, between two
// consecutive sessions of one source, the gap from the first's End to
// the second's Start: the gaps a sessionizer splits at and those a
// budget eviction leaves. With the gaps inside sessions, which a
// Sessionizer's GapRecorder reports, that is every gap between two
// packets of one source, once. list must hold every session of its
// sources, in canonical order (SortCanonical).
func (t *TimeoutSweep) RecordSessions(list []*Session) {
	last := make(map[netmodel.Addr]telescope.Timestamp)
	for _, s := range list {
		if end, ok := last[s.Src]; ok && s.Start > end {
			t.RecordGap(time.Duration(s.Start-end) * time.Millisecond)
		}
		last[s.Src] = s.End
	}
	for a := range last {
		t.RecordSource(a)
	}
}

// RecordGap registers one gap between two packets of one source. A
// gap g is binned at b = ⌈g⌉ minutes: it splits exactly the sessions of
// all timeouts m < b (g > m ⇔ b > m for integer m).
func (t *TimeoutSweep) RecordGap(gap time.Duration) {
	b := int(math.Ceil(gap.Minutes()))
	if b < 1 {
		b = 1
	}
	if b > 60 {
		t.over60++
		return
	}
	t.gapMinutes[b]++
}

// Sessions returns the session count for a timeout of m minutes
// (1 ≤ m ≤ 60): the paper's y-axis.
func (t *TimeoutSweep) Sessions(m int) uint64 {
	n := uint64(len(t.Sources))
	// Every gap strictly greater than m minutes adds one session.
	for b := m + 1; b <= 60; b++ {
		n += t.gapMinutes[b]
	}
	return n + t.over60
}

// LowerBound returns the timeout=∞ floor: distinct source count.
func (t *TimeoutSweep) LowerBound() uint64 { return uint64(len(t.Sources)) }

// Merge folds another sweep's gap histogram and source set into t.
// Both operations (bin addition, set union) commute, so shard sweeps
// merge to exactly the sequential sweep.
func (t *TimeoutSweep) Merge(o *TimeoutSweep) {
	for i, n := range o.gapMinutes {
		t.gapMinutes[i] += n
	}
	t.over60 += o.over60
	for a := range o.Sources {
		t.Sources[a] = struct{}{}
	}
}

// SortCanonical orders sessions by (start, source address, end). The
// first two alone are unique — one source's sessions are separated by
// more than the timeout, so a source never starts two sessions at the
// same instant. Sessionizers emit in expiry order, which varies with
// sweep timing and shard count; the canonical order is what the
// deterministic pipeline reduction and every downstream analysis
// consume.
func SortCanonical(list []*Session) {
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.End < b.End
	})
}
