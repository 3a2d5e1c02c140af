package sessions

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/srcindex"
)

// The anatomy sets against Go-map models: random keys with key 0 and
// repeats, growth well past the spill, the independence of a copy
// decoded from the session codec, and the encoded key lists.

// decodedSmallSet is s after an encode/decode round trip, the only copy
// a checkpoint makes of a set.
func decodedSmallSet[K intKey](t *testing.T, s *smallSet[K]) smallSet[K] {
	t.Helper()
	w := ckpt.NewWriter(nil)
	encodeSmallSet(w, s)
	r := ckpt.NewReader(w.Bytes())
	var c smallSet[K]
	decodeSmallSet(r, &c)
	if r.Err() != nil || r.Remaining() != 0 || (c.t != nil) != (s.t != nil) {
		t.Fatalf("round trip: err %v, %d bytes left, spilled %v want %v", r.Err(), r.Remaining(), c.t != nil, s.t != nil)
	}
	return c
}

// decodedSCIDSet is s after a round trip through the open-session codec.
func decodedSCIDSet(t *testing.T, s *scidSet) scidSet {
	t.Helper()
	w := ckpt.NewWriter(nil)
	encodeLive(w, &live{scids: *s})
	r := ckpt.NewReader(w.Bytes())
	var d live
	if !decodeLive(r, &d) || r.Remaining() != 0 || (d.scids.t != nil) != (s.t != nil) {
		t.Fatalf("round trip: err %v, %d bytes left", r.Err(), r.Remaining())
	}
	return d.scids
}

func checkSmallSet[K intKey](t *testing.T, s *smallSet[K], model map[K]bool) {
	t.Helper()
	if s.count() != len(model) {
		t.Fatalf("count %d, model %d", s.count(), len(model))
	}
	if s.t == nil {
		return
	}
	want := make([]K, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	if got := s.t.sortedKeys(); !slices.Equal(got, want) {
		t.Fatalf("keys %v, want %v", got, want)
	}
}

func smallSetModel[K intKey](t *testing.T, rng *rand.Rand, key func() K) {
	s := &smallSet[K]{}
	model := map[K]bool{}
	for i := 0; i < 3000; i++ {
		k := key()
		s.add(k)
		model[k] = true
		if s.count() != len(model) {
			t.Fatalf("count %d after %v, model %d", s.count(), k, len(model))
		}
		if i%97 == 0 {
			checkSmallSet(t, s, model)
		}
		if i == 1500 {
			c := decodedSmallSet(t, s)
			cm := map[K]bool{}
			for k := range model {
				cm[k] = true
			}
			for j := 0; j < 500; j++ {
				k := key()
				c.add(k)
				cm[k] = true
			}
			checkSmallSet(t, s, model)
			checkSmallSet(t, &c, cm)
		}
	}
	checkSmallSet(t, s, model)
	if s.t == nil || !s.t.hasZero {
		t.Fatalf("stream never spilled or never added key 0")
	}
}

func TestSmallSetsMatchMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		smallSetModel(t, rng, func() netmodel.Addr {
			if rng.Intn(50) == 0 {
				return 0
			}
			return netmodel.Addr(rng.Uint32() % 2000 << uint(rng.Intn(3)*8))
		})
		smallSetModel(t, rng, func() uint16 { return uint16(rng.Intn(1500)) })
	}
}

func checkSCIDSet(t *testing.T, s *scidSet, model map[string]bool) {
	t.Helper()
	if s.count() != len(model) {
		t.Fatalf("count %d, model %d", s.count(), len(model))
	}
	var got []string
	for _, off := range s.sortedOffsets() {
		got = append(got, string(scidAt(s.arena, off)))
	}
	for _, k := range got {
		if !model[k] {
			t.Fatalf("set holds %x, model does not", k)
		}
	}
	if len(got) != len(model) {
		t.Fatalf("arena holds %d SCIDs, model %d", len(got), len(model))
	}
}

func TestSCIDSetMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		key := func() []byte {
			b := make([]byte, rng.Intn(21))
			for i := range b {
				b[i] = byte(rng.Intn(3))
			}
			return b
		}
		s := &scidSet{}
		model := map[string]bool{}
		for i := 0; i < 3000; i++ {
			k := key()
			s.add(k)
			model[string(k)] = true
			if s.count() != len(model) {
				t.Fatalf("count %d after %x, model %d", s.count(), k, len(model))
			}
			if i%97 == 0 {
				checkSCIDSet(t, s, model)
			}
			if i == 1500 {
				c := decodedSCIDSet(t, s)
				cm := map[string]bool{}
				for k := range model {
					cm[k] = true
				}
				for j := 0; j < 500; j++ {
					k := key()
					c.add(k)
					cm[string(k)] = true
				}
				checkSCIDSet(t, s, model)
				checkSCIDSet(t, &c, cm)
			}
		}
		checkSCIDSet(t, s, model)
		if s.t == nil || !model[""] {
			t.Fatal("stream never spilled or never added the empty SCID")
		}
	}
}

// TestSpillCounts pins where each set spills: the 9th distinct peer
// address or port, the 5th distinct SCID — SetSpills counts these.
func TestSpillCounts(t *testing.T) {
	var a addrSet
	var p portSet
	var s scidSet
	for i := 0; i < 8; i++ {
		a.add(netmodel.Addr(i))
		a.add(netmodel.Addr(i))
		p.add(uint16(i))
		if i < 4 {
			s.add([]byte{byte(i)})
			s.add([]byte{byte(i)})
		}
	}
	if a.t != nil || p.t != nil || s.t != nil {
		t.Fatal("a set spilled at its inline capacity")
	}
	a.add(8)
	p.add(8)
	s.add([]byte{4})
	if a.t == nil || p.t == nil || s.t == nil || a.count() != 9 || p.count() != 9 || s.count() != 5 {
		t.Fatalf("one past capacity: spilled %v %v %v, counts %d %d %d",
			a.t != nil, p.t != nil, s.t != nil, a.count(), p.count(), s.count())
	}
}

// encodeOpenSession writes an open session whose three anatomy sets
// carry the given keys verbatim, duplicates included — what a damaged
// or hand-made image may hold.
func encodeOpenSession(scids [][]byte, addrs []netmodel.Addr, ports []uint16) []byte {
	w := ckpt.NewWriter(nil)
	encodeAnswers(w, &Session{Src: 0x0a000001})
	w.U64(uint64(len(scids)))
	for _, b := range scids {
		w.Bytes8(b)
	}
	w.U64(uint64(len(addrs)))
	for _, a := range addrs {
		w.U64(uint64(a))
	}
	w.U64(uint64(len(ports)))
	for _, p := range ports {
		w.U64(uint64(p))
	}
	w.I64(0) // the open minute
	w.U64(0) // and its count
	return w.Bytes()
}

// TestDecodedDuplicateKeysCollapse: duplicate keys in an image's sets
// count once, as they did in a map; a set spills exactly when its
// distinct keys pass the inline capacity; and an open session
// re-encodes its sets distinct, inline arms in first-seen order and
// spilled ones sorted.
func TestDecodedDuplicateKeysCollapse(t *testing.T) {
	var addrs, distinctAddrs []netmodel.Addr
	for i := 12; i > 0; i-- { // 12 distinct, each twice: past the inline 8
		addrs = append(addrs, netmodel.Addr(i), netmodel.Addr(i))
		distinctAddrs = append(distinctAddrs, netmodel.Addr(13-i))
	}
	img := encodeOpenSession(
		[][]byte{{9, 9}, {1}, {9, 9}, {}, {1}},
		addrs,
		[]uint16{443, 443, 0, 1},
	)
	var e live
	if r := ckpt.NewReader(img); !decodeLive(r, &e) || r.Remaining() != 0 {
		t.Fatalf("decode: %v, %d bytes left", r.Err(), r.Remaining())
	}
	if e.scids.count() != 3 || e.peerAddrs.count() != 12 || e.peerPorts.count() != 3 {
		t.Fatalf("open counts %d %d %d, want 3 12 3", e.scids.count(), e.peerAddrs.count(), e.peerPorts.count())
	}
	if e.scids.t != nil || e.peerAddrs.t == nil || e.peerPorts.t != nil {
		t.Fatalf("spilled %v %v %v, want only the peer addresses", e.scids.t != nil, e.peerAddrs.t != nil, e.peerPorts.t != nil)
	}
	w := ckpt.NewWriter(nil)
	encodeLive(w, &e)
	want := encodeOpenSession([][]byte{{9, 9}, {1}, {}}, distinctAddrs, []uint16{443, 0, 1})
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("re-encoded\n %x\nwant\n %x", w.Bytes(), want)
	}
}

// meanProbe is the mean number of slots a successful lookup visits, from
// each occupied slot's distance to its home.
func meanProbe[S any](slots []S, home func(S) (uint32, bool)) float64 {
	mask := uint32(len(slots) - 1)
	n, sum := 0, 0
	for i, sl := range slots {
		if h, ok := home(sl); ok {
			n++
			sum += int((uint32(i)-h)&mask) + 1
		}
	}
	return float64(sum) / float64(n)
}

// TestStructuredKeysProbeShort feeds every table the key shapes a
// spoofing attacker controls — addresses sharing their low 16 bits,
// ports in arithmetic progression, SCIDs differing in one byte — and
// fails if a lookup visits more than 3 slots on average. An unseeded
// multiplicative hash fails this on the first shape.
func TestStructuredKeysProbeShort(t *testing.T) {
	check := func(what string, mean float64) {
		t.Helper()
		if mean > 3 {
			t.Errorf("%s: mean probe length %.2f > 3", what, mean)
		} else {
			t.Logf("%s: mean probe length %.2f", what, mean)
		}
	}
	for _, n := range []int{1000, 6000, 12000} {
		var addrs addrSet
		for i := 0; i < n; i++ {
			addrs.add(netmodel.Addr(uint32(i)<<16 | 0xbeef))
		}
		check("addresses sharing their low 16 bits (peer set)", meanProbe(addrs.t.slots, func(k netmodel.Addr) (uint32, bool) {
			return srcindex.Hash32(uint32(k)) & uint32(len(addrs.t.slots)-1), k != 0
		}))

		var ports portSet
		for i := 0; i < n && 1024+7*i < 1<<16; i++ {
			ports.add(uint16(1024 + 7*i))
		}
		check("ports in arithmetic progression", meanProbe(ports.t.slots, func(k uint16) (uint32, bool) {
			return srcindex.Hash32(uint32(k)) & uint32(len(ports.t.slots)-1), k != 0
		}))

		var scids scidSet
		base := []byte("quicsand-scid-twenty")
		for i := 0; i < n; i++ {
			b := slices.Clone(base)
			b[i/256%len(b)] = byte(i)
			scids.add(b)
		}
		check("SCIDs differing in one byte", meanProbe(scids.t.slots, func(sl scidSlot) (uint32, bool) {
			return sl.tag & uint32(len(scids.t.slots)-1), sl.off != 0
		}))
	}
}
