package sessions

// The sessionizer against reference bookkeeping. The reference keeps a
// last-seen table of its own and, on every packet, records the gap
// since the source's previous packet and registers the source with its
// sweep; the sessionizer reports only the gaps inside a session, and
// the sweep gets the sources and the gaps between sessions from the
// sessions at the end (TimeoutSweep.RecordSessions). Its sweeps and
// budget eviction read the last-touch list; the ref* functions below
// scan every active session instead — refEvictColdest is the linear
// victim search the list replaced — over the same struct, using the
// active index only to find, add and drop a source's session. Sessions
// finished together are emitted in source order on both sides. Seeded
// random streams drive both and everything observable must agree: the
// emitted sessions in emission order, the session log, the sweep bin
// for bin with its source set, every counter, and the sessionizer's
// checkpoint bytes at arbitrary cut points.

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"quicsand/internal/ckpt"
	"quicsand/internal/dissect"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// refObserve observes one packet and reports whether the budget evicted
// the session the packet opened.
func refObserve(sz *Sessionizer, p *telescope.Packet, r *dissect.Result) (selfEvicted bool) {
	timeoutMS := telescope.Timestamp(sz.Timeout.Milliseconds())

	var e *live
	if pos := sz.active.Lookup(p.Src); pos >= 0 {
		e = sz.active.At(pos)
		if gap := p.TS - e.s.End; gap > timeoutMS {
			sz.Metrics.TimeoutSplits++
			refFinish(sz, e)
			sz.active.Remove(pos)
			e = nil
		}
	}
	opened := e == nil
	if opened {
		s := Session{Src: p.Src, Start: p.TS, End: p.TS}
		e = sz.active.At(sz.active.Put(p.Src, p.TS, live{s: s, curMinute: int64(p.TS) / 60000}))
	}

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

	if opened && sz.MaxActive > 0 && sz.active.Len() > sz.MaxActive {
		selfEvicted = refEvictColdest(sz) == p.Src
	}

	if p.TS-sz.lastSweep > timeoutMS {
		sz.lastSweep = p.TS
		var expired []netmodel.Addr
		for pos := int32(0); int(pos) < sz.active.Len(); pos++ {
			if s := sz.active.At(pos).s; p.TS-s.End > timeoutMS {
				expired = append(expired, s.Src)
			}
		}
		refFinishAll(sz, expired, &sz.Metrics.SweepEvicted)
	}
	return selfEvicted
}

func refFinish(sz *Sessionizer, e *live) {
	s := &e.s
	if e.curCount > s.maxPerMin {
		s.maxPerMin = e.curCount
	}
	e.curCount = 0
	s.nSCIDs, s.nPeerAddrs, s.nPeerPorts = uint32(e.scids.count()), uint32(e.peerAddrs.count()), uint32(e.peerPorts.count())
	sz.Metrics.Emitted++
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

// refFinishAll finishes and drops the given sources' sessions in source
// order.
func refFinishAll(sz *Sessionizer, srcs []netmodel.Addr, cause *uint64) {
	slices.Sort(srcs)
	for _, src := range srcs {
		*cause++
		pos := sz.active.Lookup(src)
		refFinish(sz, sz.active.At(pos))
		sz.active.Remove(pos)
	}
}

// refEvictColdest is the linear scan the last-touch list replaced. It
// returns the victim's source.
func refEvictColdest(sz *Sessionizer) netmodel.Addr {
	victim := int32(0)
	for pos := int32(1); int(pos) < sz.active.Len(); pos++ {
		s, v := sz.active.At(pos).s, sz.active.At(victim).s
		if s.End < v.End || (s.End == v.End && s.Src < v.Src) {
			victim = pos
		}
	}
	src := sz.active.At(victim).s.Src
	sz.Metrics.BudgetEvicted++
	refFinish(sz, sz.active.At(victim))
	sz.active.Remove(victim)
	return src
}

func refFlush(sz *Sessionizer) {
	var srcs []netmodel.Addr
	for pos := int32(0); int(pos) < sz.active.Len(); pos++ {
		srcs = append(srcs, sz.active.At(pos).s.Src)
	}
	refFinishAll(sz, srcs, &sz.Metrics.FlushEmitted)
}

func refEncodeTo(sz *Sessionizer, w *ckpt.Writer) {
	w.I64(int64(sz.lastSweep))
	m := &sz.Metrics
	w.U64(m.Emitted)
	w.U64(m.TimeoutSplits)
	w.U64(m.SweepEvicted)
	w.U64(m.FlushEmitted)
	w.U64(m.BudgetEvicted)
	w.U64(m.SetSpills)

	active := map[netmodel.Addr]*live{}
	srcs := make([]netmodel.Addr, 0, sz.active.Len())
	for pos := int32(0); int(pos) < sz.active.Len(); pos++ {
		e := sz.active.At(pos)
		active[e.s.Src] = e
		srcs = append(srcs, e.s.Src)
	}
	slices.Sort(srcs)
	w.U64(uint64(len(srcs)))
	for _, src := range srcs {
		encodeLive(w, active[src])
	}
}

// rig is one sessionizer with the wiring a streaming shard gives it: the
// sweep that receives its gaps, the session log, and the emitted
// sessions. ref selects the old bookkeeping for every operation that
// differs: the reference sweep gets every gap and source per packet,
// through lastSeen. It also counts the sessions the budget evicted at
// their own opening packet.
type rig struct {
	ref         bool
	sz          *Sessionizer
	sweep       *TimeoutSweep
	lastSeen    map[netmodel.Addr]telescope.Timestamp
	log         *ckpt.Writer
	out         []*Session
	selfEvicted int
}

func newRig(ref bool, maxActive int) *rig {
	g := &rig{ref: ref, sweep: NewTimeoutSweep(), log: ckpt.NewWriter(nil)}
	g.sz = NewSessionizer(nil)
	g.sz.Emit = g.emit
	g.sz.Log = g.log
	g.sz.MaxActive = maxActive
	if ref {
		g.lastSeen = map[netmodel.Addr]telescope.Timestamp{}
	} else {
		g.sz.GapRecorder = g.sweep.RecordGap
	}
	return g
}

// emit keeps a copy of the session it is lent.
func (g *rig) emit(s *Session) {
	c := *s
	g.out = append(g.out, &c)
}

func (g *rig) observe(p *telescope.Packet, r *dissect.Result) {
	if !g.ref {
		g.sz.Observe(p, r)
		return
	}
	if last, ok := g.lastSeen[p.Src]; ok && p.TS > last {
		g.sweep.RecordGap(time.Duration(p.TS-last) * time.Millisecond)
	}
	g.lastSeen[p.Src] = p.TS
	g.sweep.RecordSource(p.Src)
	if refObserve(g.sz, p, r) {
		g.selfEvicted++
	}
}

func (g *rig) flush() {
	if g.ref {
		refFlush(g.sz)
	} else {
		g.sz.Flush()
	}
}

// encode is the sessionizer's checkpoint fragment.
func (g *rig) encode() []byte {
	w := ckpt.NewWriter(nil)
	if g.ref {
		refEncodeTo(g.sz, w)
	} else {
		g.sz.EncodeTo(w)
	}
	return w.Bytes()
}

// restore continues on the decoded image, configured and hooked after
// the parse as ResumeStreamer does. A shard's sweep is its gap
// histogram; the reference's bookkeeping is copied.
func (g *rig) restore(t *testing.T) *rig {
	t.Helper()
	w := ckpt.NewWriter(nil)
	g.sweep.EncodeTo(w)
	w.Raw(g.encode())
	r := ckpt.NewReader(w.Bytes())
	c := &rig{ref: g.ref, out: slices.Clone(g.out), selfEvicted: g.selfEvicted}
	c.sweep = DecodeTimeoutSweep(r)
	c.sz = DecodeSessionizer(r)
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("restore: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	c.log = ckpt.NewWriter(slices.Clone(g.log.Bytes()))
	c.sz.Emit = c.emit
	c.sz.Log = c.log
	c.sz.MaxActive = g.sz.MaxActive
	if g.ref {
		c.sweep.Sources = maps.Clone(g.sweep.Sources)
		c.lastSeen = maps.Clone(g.lastSeen)
	} else {
		c.sz.GapRecorder = c.sweep.RecordGap
	}
	return c
}

// figure4 is the sweep a reduction of g's state would report: for the
// sessionizer, its gaps plus RecordSessions over a restored copy's
// sessions, flushed; the reference's sweep as it stands.
func (g *rig) figure4(t *testing.T) *TimeoutSweep {
	t.Helper()
	if g.ref {
		return g.sweep
	}
	c := g.restore(t)
	c.flush()
	list := slices.Clone(c.out)
	SortCanonical(list)
	c.sweep.RecordSessions(list)
	return c.sweep
}

// expectSameRigs compares everything a run can observe of the two.
func expectSameRigs(t *testing.T, at string, got, want *rig) {
	t.Helper()
	if !bytes.Equal(got.encode(), want.encode()) {
		t.Fatalf("%s: checkpoint bytes differ", at)
	}
	if got.sz.Metrics != want.sz.Metrics || got.sz.ActiveSessions() != want.sz.ActiveSessions() {
		t.Fatalf("%s: counters differ:\n got  %+v active %d\n want %+v active %d", at,
			got.sz.Metrics, got.sz.ActiveSessions(), want.sz.Metrics, want.sz.ActiveSessions())
	}
	gs, ws := got.figure4(t), want.figure4(t)
	if gs.gapMinutes != ws.gapMinutes || gs.over60 != ws.over60 {
		t.Fatalf("%s: gap histograms differ:\n got  %v +%d\n want %v +%d", at,
			gs.gapMinutes, gs.over60, ws.gapMinutes, ws.over60)
	}
	if !reflect.DeepEqual(gs.Sources, ws.Sources) {
		t.Fatalf("%s: source sets differ: %d vs %d sources", at, len(gs.Sources), len(ws.Sources))
	}
	// Emission order included: sessions finished together go out in
	// source order, whatever the tables' layout.
	a, b := got.out, want.out
	if len(a) != len(b) {
		t.Fatalf("%s: %d sessions emitted, want %d", at, len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("%s: session %d differs:\n got  %+v\n want %+v", at, i, a[i], b[i])
		}
	}
	// The log holds the emitted sessions, and decodes to their answers.
	if !bytes.Equal(got.log.Bytes(), want.log.Bytes()) {
		t.Fatalf("%s: session logs differ", at)
	}
	r := ckpt.NewReader(got.log.Bytes())
	logged := DecodeFinished(r, len(a))
	if r.Err() != nil || r.Remaining() != 0 || len(logged) != len(a) {
		t.Fatalf("%s: the log decodes to %d of %d sessions (err %v, %d bytes left)", at, len(logged), len(a), r.Err(), r.Remaining())
	}
	for i := range a {
		if got, want := answersOf(&logged[i]), answersOf(a[i]); got != want {
			t.Fatalf("%s: logged session %d decodes to\n %+v\nemitted\n %+v", at, i, got, want)
		}
	}
}

// randomPacket draws the stream's next packet: time advances by nothing
// (equal timestamps), a little, just under/at/over the timeout, or past
// an hour; the source comes from a small pool so sessions continue,
// split, get swept and — under a budget — get evicted.
func randomPacket(rng *rand.Rand, now *telescope.Timestamp, timeout time.Duration) (*telescope.Packet, *dissect.Result) {
	tmo := telescope.Timestamp(timeout.Milliseconds())
	switch k := rng.Intn(100); {
	case k < 25:
	case k < 80:
		*now += telescope.Timestamp(1 + rng.Intn(20_000))
	case k < 95:
		*now += tmo - 1 + telescope.Timestamp(rng.Intn(3))
	case k < 99:
		*now += tmo + telescope.Timestamp(rng.Intn(30*60_000))
	default:
		*now += telescope.Timestamp(61 * 60_000)
	}
	p := &telescope.Packet{
		TS:   *now,
		Src:  netmodel.Addr(0x0a000000 + uint32(rng.Intn(24))),
		Dst:  netmodel.Addr(0x2c000000 + uint32(rng.Intn(40))),
		Size: uint16(40 + rng.Intn(1300)),
	}
	if rng.Intn(2) == 0 {
		p.SrcPort, p.DstPort = 443, uint16(1024+rng.Intn(64))
	} else {
		p.SrcPort, p.DstPort = uint16(1024+rng.Intn(64)), 443
	}
	if rng.Intn(3) == 0 {
		return p, nil
	}
	r := &dissect.Result{Valid: true}
	for i := 0; i <= rng.Intn(3); i++ {
		r.Packets = append(r.Packets, dissect.PacketInfo{
			Type:           wire.PacketType(rng.Intn(5)),
			Version:        wire.Version(1 + rng.Intn(6)),
			SCID:           wire.ConnectionID{byte(rng.Intn(12)), 7},
			HasClientHello: rng.Intn(4) == 0,
		})
	}
	return p, r
}

func TestSessionizerMatchesPerPacketBookkeeping(t *testing.T) {
	for seed := int64(1); seed <= 9; seed++ {
		maxActive := 0
		if seed%3 == 0 {
			maxActive = 2 // evictions on most opens, self-evictions on ties
		}
		rng := rand.New(rand.NewSource(seed))
		got, want := newRig(false, maxActive), newRig(true, maxActive)
		now := telescope.TS(telescope.MeasurementStart)
		for i := 0; i < 3000; i++ {
			switch k := rng.Intn(400); k {
			case 0, 1:
				got, want = got.restore(t), want.restore(t)
			case 2, 3:
				expectSameRigs(t, "mid-stream", got, want)
			}
			p, r := randomPacket(rng, &now, got.sz.Timeout)
			got.observe(p, r)
			want.observe(p, r)
		}
		expectSameRigs(t, "end of stream", got, want)
		if m := want.sz.Metrics; m.TimeoutSplits == 0 || m.SweepEvicted == 0 || m.SetSpills == 0 ||
			(maxActive > 0) != (m.BudgetEvicted > 0) || want.sweep.over60 == 0 {
			t.Fatalf("seed %d: stream exercised too little: %+v, over60 %d", seed, m, want.sweep.over60)
		}
		// A session opened at the coldest End with the smallest source is
		// itself the budget's victim, finished once its opening packet is
		// in: the emitted sessions above agree on it, log included.
		if selfEvicted := want.selfEvicted > 0; selfEvicted != (maxActive > 0) {
			t.Fatalf("seed %d: self-eviction seen = %v under MaxActive %d", seed, selfEvicted, maxActive)
		}

		// The resume path whose first call is Flush: decoded state, hooks
		// wired afterwards, no packet before the sessions finish.
		got, want = got.restore(t), want.restore(t)
		got.flush()
		want.flush()
		expectSameRigs(t, "flushed after restore", got, want)
		if got.sz.ActiveSessions() != 0 || got.sz.Metrics.FlushEmitted == 0 {
			t.Fatalf("seed %d: flush left %d active, %d flushed", seed, got.sz.ActiveSessions(), got.sz.Metrics.FlushEmitted)
		}
	}
}

// TestBudgetEvictionMatchesLinearScan holds the last-touch list's victim
// to the linear scan under the budgets that press it hardest: most
// packets tie with the previous one, so the tail's equal-End group is
// large and the victim is chosen inside it by source, and the source
// pool is a few times the budget, so most opens evict.
func TestBudgetEvictionMatchesLinearScan(t *testing.T) {
	for _, maxActive := range []int{1, 2, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(maxActive)))
			got, want := newRig(false, maxActive), newRig(true, maxActive)
			now := telescope.TS(telescope.MeasurementStart)
			for i := 0; i < 4000; i++ {
				switch rng.Intn(300) {
				case 0, 1:
					got, want = got.restore(t), want.restore(t)
				case 2, 3:
					expectSameRigs(t, "mid-stream", got, want)
				}
				next := now
				p, r := randomPacket(rng, &next, got.sz.Timeout)
				switch k := rng.Intn(100); {
				case k < 80:
				case k < 98:
					now += telescope.Timestamp(1 + rng.Intn(50))
				default:
					now = next // sometimes past the timeout: splits and sweeps
				}
				p.TS = now
				p.Src = netmodel.Addr(0x0a000000 + uint32(rng.Intn(3*maxActive+8)))
				got.observe(p, r)
				want.observe(p, r)
			}
			expectSameRigs(t, "end of stream", got, want)
			if m := want.sz.Metrics; m.BudgetEvicted < 500 || (maxActive == 64 && m.SweepEvicted == 0) {
				t.Fatalf("budget %d seed %d: stream exercised too little: %+v", maxActive, seed, m)
			}
			got, want = got.restore(t), want.restore(t)
			got.flush()
			want.flush()
			expectSameRigs(t, "flushed after restore", got, want)
		}
	}
}

// TestSweepAndFlushEmitInSourceOrder pins canonical emission: sessions
// finished together go out in source order, whatever order their
// sources arrived in.
func TestSweepAndFlushEmitInSourceOrder(t *testing.T) {
	var got []netmodel.Addr
	sz := NewSessionizer(func(s *Session) { got = append(got, s.Src) })
	srcs := []string{"9.0.0.1", "3.0.0.7", "200.1.1.1", "3.0.0.2", "77.7.7.7", "0.0.0.0"}
	for i, src := range srcs {
		sz.Observe(pkt(src, time.Duration(i)*time.Second, false), nil)
	}
	// Past the timeout of all six: the sweep this packet triggers finishes
	// them together.
	sz.Observe(pkt("1.2.3.4", 10*time.Minute, false), nil)
	for i, src := range srcs {
		sz.Observe(pkt(src, 10*time.Minute+time.Duration(i)*time.Second, true), nil)
	}
	sz.Flush()
	sorted := make([]netmodel.Addr, len(srcs))
	for i, src := range srcs {
		sorted[i] = netmodel.MustAddr(src)
	}
	slices.Sort(sorted)
	withProbe := append(slices.Clone(sorted), netmodel.MustAddr("1.2.3.4"))
	slices.Sort(withProbe)
	want := append(slices.Clone(sorted), withProbe...)
	if !slices.Equal(got, want) {
		t.Errorf("emitted %v, want %v", got, want)
	}
}
