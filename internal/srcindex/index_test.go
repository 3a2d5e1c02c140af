package srcindex

import (
	"math/rand"
	"testing"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// checkIndex holds the index to a map model: the same sources at the
// same Ends, each value the source it was put for, every slot pointing
// at its entry, the last-touch list covering every entry once with End
// non-decreasing from tail to head, and Coldest equal to the smallest
// (End, Src).
func checkIndex(t *testing.T, ix *Index[netmodel.Addr], model map[netmodel.Addr]telescope.Timestamp) {
	t.Helper()
	if ix.Len() != len(model) {
		t.Fatalf("index holds %d sources, model %d", ix.Len(), len(model))
	}
	for src, end := range model {
		pos := ix.Lookup(src)
		if pos < 0 || ix.Src(pos) != src || *ix.At(pos) != src || ix.End(pos) != end {
			t.Fatalf("Lookup(%d) = %d, want the entry ending %d", src, pos, end)
		}
	}
	occupied := 0
	for _, sl := range ix.slots {
		if sl.pos == 0 {
			continue
		}
		occupied++
		if int(sl.pos) > ix.Len() || ix.entries[sl.pos-1].src != sl.src {
			t.Fatalf("slot for %d points at entry %d", sl.src, sl.pos-1)
		}
	}
	if occupied != len(model) {
		t.Fatalf("%d occupied slots, model %d", occupied, len(model))
	}
	if ix.Len() == 0 {
		if ix.head != -1 || ix.tail != -1 {
			t.Fatalf("empty list with head %d, tail %d", ix.head, ix.tail)
		}
		return
	}
	n, prev, last := 0, int32(-1), ix.tail
	for p := ix.tail; p >= 0; p = ix.entries[p].newer {
		e := &ix.entries[p]
		if e.older != prev {
			t.Fatalf("entry %d: older %d, walked from %d", p, e.older, prev)
		}
		if prev >= 0 && ix.entries[prev].end > e.end {
			t.Fatalf("list not sorted by End: %d after %d", e.end, ix.entries[prev].end)
		}
		if n++; n > ix.Len() {
			t.Fatal("list has a cycle")
		}
		prev, last = p, p
	}
	if n != ix.Len() || last != ix.head {
		t.Fatalf("list walks %d of %d entries, ends at %d, head %d", n, ix.Len(), last, ix.head)
	}
	c := ix.Coldest()
	for src, end := range model {
		if end < ix.End(c) || (end == ix.End(c) && src < ix.Src(c)) {
			t.Fatalf("coldest is %d@%d, but %d@%d is colder", ix.Src(c), ix.End(c), src, end)
		}
	}
}

// indexOps applies one operation per byte pair to ix and model: put a
// new source, touch, remove, or look up. Time moves forward by the
// byte's low bits, and now and then backward, which link must absorb
// without breaking the list's order.
func indexOps(t *testing.T, ix *Index[netmodel.Addr], model map[netmodel.Addr]telescope.Timestamp, now *telescope.Timestamp, ops []byte) {
	t.Helper()
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		// Sources 0..63 from a few address neighbourhoods: 0 itself, and
		// keys sharing their low bits.
		src := netmodel.Addr(uint32(arg&15) << (8 * uint(arg>>4&3)))
		if arg&64 != 0 {
			src |= 0x0a000000
		}
		switch {
		case op&0x80 != 0 && op&0x40 != 0:
			*now -= telescope.Timestamp(op & 7)
		default:
			*now += telescope.Timestamp(op >> 5 & 3)
		}
		pos := ix.Lookup(src)
		if _, ok := model[src]; ok != (pos >= 0) {
			t.Fatalf("Lookup(%d) = %d, model has it: %v", src, pos, ok)
		}
		switch op & 3 {
		case 0, 1: // put, or touch a held source
			if pos < 0 {
				ix.Put(src, *now, src)
			} else {
				ix.Touch(pos, *now)
			}
			model[src] = *now
		case 2:
			if pos >= 0 {
				if v := ix.Remove(pos); v != src {
					t.Fatalf("Remove(%d) returned %d", src, v)
				}
				delete(model, src)
			}
		case 3:
			if ix.Len() > 0 {
				delete(model, ix.Remove(ix.Coldest()))
			}
		}
		checkIndex(t, ix, model)
	}
}

func FuzzActiveIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 2, 1, 1, 3, 0})
	f.Add([]byte{0, 0, 0x20, 0x10, 0x40, 0x20, 0xc4, 0x30, 0x03, 0, 0x02, 0x10})
	seq := make([]byte, 0, 512)
	for i := 0; i < 256; i++ {
		seq = append(seq, byte(i*37), byte(i*11))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		ix := New[netmodel.Addr]()
		model := map[netmodel.Addr]telescope.Timestamp{}
		now := telescope.Timestamp(1 << 40)
		indexOps(t, &ix, model, &now, ops)
	})
}

// TestActiveIndexMatchesMapModel drives the index through random
// operation streams: key 0, re-puts, growth from empty, deletion runs
// that wrap around the end of the slot array, and resets.
func TestActiveIndexMatchesMapModel(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := New[netmodel.Addr]()
		model := map[netmodel.Addr]telescope.Timestamp{}
		now := telescope.Timestamp(1 << 40)
		for round := 0; round < 40; round++ {
			ops := make([]byte, 2*(1+rng.Intn(40)))
			rng.Read(ops)
			indexOps(t, &ix, model, &now, ops)
			for i, sl := range ix.slots {
				if sl.pos != 0 && Hash32(uint32(sl.src))&uint32(len(ix.slots)-1) > uint32(i) {
					wrapped++
				}
			}
			if rng.Intn(16) == 0 {
				ix.Reset()
				clear(model)
				checkIndex(t, &ix, model)
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe run ever wrapped around the slot array")
	}
}

// TestStructuredSourcesProbeShort feeds the index addresses sharing
// their low 16 bits, a shape a spoofing attacker controls, and fails if
// a lookup visits more than 3 slots on average. An unseeded
// multiplicative hash fails this.
func TestStructuredSourcesProbeShort(t *testing.T) {
	for _, n := range []int{1000, 6000, 12000} {
		ix := New[struct{}]()
		for i := 0; i < n; i++ {
			ix.Put(netmodel.Addr(uint32(i)<<16|0xbeef), telescope.Timestamp(i), struct{}{})
		}
		mask := uint32(len(ix.slots) - 1)
		probes := 0
		for i, sl := range ix.slots {
			if sl.pos != 0 {
				probes += int((uint32(i)-Hash32(uint32(sl.src)))&mask) + 1
			}
		}
		if mean := float64(probes) / float64(n); mean > 3 {
			t.Errorf("%d sources: mean probe length %.2f > 3", n, mean)
		} else {
			t.Logf("%d sources: mean probe length %.2f", n, mean)
		}
	}
}
