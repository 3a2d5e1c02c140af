package sessions

import (
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
// pipeline shard does its QUIC traffic: captured QUIC candidates,
// dissected, into one sessionizer.
func floodSessions(t *testing.T) []*Session {
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
	return list
}

// TestSealKeepsEveryAnswer: for every session of a flood capture, a
// sealed copy answers every reader the unsealed session answers — the
// three anatomy counts, the version histogram, the rate and message
// mix — with its sets released, and sealing again changes nothing.
// Encoding a sealed session panics: an image must carry the sets.
func TestSealKeepsEveryAnswer(t *testing.T) {
	list := floodSessions(t)
	spilled := 0
	for i, s := range list {
		if s.scids.t != nil {
			spilled++
		}
		c := *s
		c.Seal()
		if c.scids.arena != nil || c.scids.t != nil || c.peerAddrs.t != nil || c.peerPorts.t != nil {
			t.Fatalf("session %d: a sealed session still holds its sets", i)
		}
		type answers struct {
			scids, addrs, ports int
			version             uint32
			maxPPS, duration    float64
			initial, handshake  float64
			kind                Kind
			types               [6]int
		}
		of := func(s *Session) answers {
			return answers{s.UniqueSCIDs(), s.UniquePeerAddrs(), s.UniquePeerPorts(), uint32(s.DominantVersion()),
				s.MaxPPS(), s.Duration(), s.InitialShare(), s.HandshakeShare(), s.Kind(), s.TypeCounts}
		}
		if got, want := of(&c), of(s); got != want {
			t.Errorf("session %d: sealed answers %+v, unsealed %+v", i, got, want)
		}
		if c.Seal(); of(&c) != of(s) {
			t.Errorf("session %d: sealing twice changed the answers", i)
		}
		got, want := c.Versions(), s.Versions()
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("session %d: sealed versions %v, unsealed %v", i, got, want)
		}
	}
	t.Logf("%d sessions, %d with a spilled SCID table", len(list), spilled)
	if len(list) < 50 || spilled == 0 {
		t.Fatalf("flood capture made %d sessions, %d with a spilled SCID table: the sealed form of large sets is not exercised", len(list), spilled)
	}

	sealed := *list[0]
	sealed.Seal()
	defer func() {
		if recover() == nil {
			t.Error("EncodeSession of a sealed session did not panic")
		}
	}()
	EncodeSession(&ckpt.Writer{}, &sealed)
}
