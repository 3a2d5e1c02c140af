package sessions

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"quicsand/internal/activescan"
	"quicsand/internal/ckpt"
	"quicsand/internal/dissect"
	"quicsand/internal/ibr"
	"quicsand/internal/netmodel"
	"quicsand/internal/scenario"
	"quicsand/internal/telescope"
)

// floodSessions sessionizes a small handshake-flood-qfam month the way a
// streaming shard does its QUIC traffic: captured QUIC candidates,
// dissected, into one sessionizer that logs each session as it
// finishes. It returns the emitted sessions and the log.
func floodSessions(t *testing.T) ([]*Session, []byte) {
	t.Helper()
	sc, err := scenario.Builtin("handshake-flood-qfam")
	if err != nil {
		t.Fatal(err)
	}
	in := netmodel.BuildInternet()
	const seed = 3
	gen, err := scenario.Compile(sc, ibr.Config{
		Seed: seed, Scale: 0.02, SkipResearch: true, Internet: in,
		Census: activescan.Build(in, netmodel.NewRNG(seed).Fork("census"), activescan.Config{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	var list []*Session
	sz := NewSessionizer(func(s *Session) { list = append(list, s) })
	sz.Log = ckpt.NewWriter(nil)
	dis := dissect.NewDissector()
	for _, m := range gen.Feeds(1, false) {
		m.Run(func(p *telescope.Packet) {
			if !netmodel.InTelescope(p.Dst) || !p.IsQUICCandidate() {
				return
			}
			var r *dissect.Result
			if p.Payload != nil {
				if r, err = dis.DissectPacket(p); err != nil {
					return
				}
			}
			sz.Observe(p, r)
		})
	}
	sz.Flush()
	return list, sz.Log.Bytes()
}

// answers is everything a reader can ask a finished session.
type answers struct {
	src                 netmodel.Addr
	start, end          telescope.Timestamp
	packets, reqs, resp int
	bytes               uint64
	scids, addrs, ports int
	version             uint32
	versions            string
	maxPPS, duration    float64
	initial, handshake  float64
	kind                Kind
	types               [6]int
}

func answersOf(s *Session) answers {
	vs := s.Versions()
	slices.Sort(vs)
	return answers{s.Src, s.Start, s.End, s.Packets, s.Requests, s.Responses, s.Bytes,
		s.UniqueSCIDs(), s.UniquePeerAddrs(), s.UniquePeerPorts(), uint32(s.DominantVersion()), fmt.Sprint(vs),
		s.MaxPPS(), s.Duration(), s.InitialShare(), s.HandshakeShare(), s.Kind(), s.TypeCounts}
}

// TestLoggedSessionsKeepEveryAnswer: for every session of a flood
// capture, the bytes the sessionizer logged as it finished decode to
// the answers it was emitted with — the three anatomy counts, the
// version histogram, the rate and message mix — large spilled SCID sets
// included.
func TestLoggedSessionsKeepEveryAnswer(t *testing.T) {
	list, log := floodSessions(t)
	r := ckpt.NewReader(log)
	decoded := DecodeFinished(r, len(list))
	if r.Err() != nil || r.Remaining() != 0 || len(decoded) != len(list) {
		t.Fatalf("the log decodes to %d of %d sessions: err %v, %d bytes left", len(decoded), len(list), r.Err(), r.Remaining())
	}
	spilled := 0
	for i, s := range list {
		if s.UniqueSCIDs() > scidInline {
			spilled++
		}
		if got, want := answersOf(&decoded[i]), answersOf(s); got != want {
			t.Errorf("session %d: logged answers %+v, emitted %+v", i, got, want)
		}
	}
	t.Logf("%d sessions, %d with a spilled SCID set", len(list), spilled)
	if len(list) < 50 || spilled == 0 {
		t.Fatalf("flood capture made %d sessions, %d with a spilled SCID set: large sets are not exercised", len(list), spilled)
	}
}

// BenchmarkFinishLogged prices finishing one spilled session onto a
// session log: a flood victim's response session with 50 000 distinct
// SCIDs, closed, counted and logged as a streaming shard's sessionizer
// does. The log is rewound before each finish, so only the entry's own
// bytes are written.
func BenchmarkFinishLogged(b *testing.B) {
	e := live{s: Session{Src: 0x0a000001, Start: 1000, End: 61_000, Packets: 50_000, Responses: 50_000}}
	scid := make([]byte, 8)
	for i := uint32(0); i < 50_000; i++ {
		binary.BigEndian.PutUint32(scid[4:], i*0x9e3779b1) // a bijection: never a repeat
		e.scids.add(scid)
	}
	if e.scids.t == nil || e.scids.count() != 50_000 {
		b.Fatalf("set holds %d SCIDs, spilled %v", e.scids.count(), e.scids.t != nil)
	}
	sz := NewSessionizer(nil)
	buf := make([]byte, 0, 1<<20)
	sz.Log = ckpt.NewWriter(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*sz.Log = *ckpt.NewWriter(buf[:0])
		sz.finish(&e)
	}
	b.StopTimer()
	if n := len(sz.Log.Bytes()); n == 0 {
		b.Fatal("finish logged nothing")
	}
	b.ReportMetric(float64(len(sz.Log.Bytes())), "log-B")
}
