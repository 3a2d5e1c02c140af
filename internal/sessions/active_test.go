package sessions

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// checkIndex holds the active index to a map model: the same sources at
// the same Ends, every slot pointing at its entry, the last-touch list
// covering every entry once with End non-decreasing from tail to head,
// and coldest equal to the smallest (End, Src).
func checkIndex(t *testing.T, ix *activeIndex, model map[netmodel.Addr]telescope.Timestamp) {
	t.Helper()
	if ix.len() != len(model) {
		t.Fatalf("index holds %d sessions, model %d", ix.len(), len(model))
	}
	for src, end := range model {
		pos := ix.lookup(src)
		if pos < 0 || ix.entries[pos].s.Src != src || ix.entries[pos].end != end {
			t.Fatalf("lookup(%d) = %d, want the entry ending %d", src, pos, end)
		}
	}
	occupied := 0
	for _, sl := range ix.slots {
		if sl.pos == 0 {
			continue
		}
		occupied++
		if int(sl.pos) > ix.len() || ix.entries[sl.pos-1].s.Src != sl.src {
			t.Fatalf("slot for %d points at entry %d", sl.src, sl.pos-1)
		}
	}
	if occupied != len(model) {
		t.Fatalf("%d occupied slots, model %d", occupied, len(model))
	}
	if ix.len() == 0 {
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
		if n++; n > ix.len() {
			t.Fatal("list has a cycle")
		}
		prev, last = p, p
	}
	if n != ix.len() || last != ix.head {
		t.Fatalf("list walks %d of %d entries, ends at %d, head %d", n, ix.len(), last, ix.head)
	}
	c := ix.entries[ix.coldest()]
	for src, end := range model {
		if end < c.end || (end == c.end && src < c.s.Src) {
			t.Fatalf("coldest is %d@%d, but %d@%d is colder", c.s.Src, c.end, src, end)
		}
	}
}

// indexOps applies one operation per byte pair to ix and model: put a
// new source, touch, remove, or look up. Time moves forward by the
// byte's low bits, and now and then backward, which link must absorb
// without breaking the list's order.
func indexOps(t *testing.T, ix *activeIndex, model map[netmodel.Addr]telescope.Timestamp, now *telescope.Timestamp, ops []byte) {
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
		pos := ix.lookup(src)
		if _, ok := model[src]; ok != (pos >= 0) {
			t.Fatalf("lookup(%d) = %d, model has it: %v", src, pos, ok)
		}
		switch op & 3 {
		case 0, 1: // put, or touch an active source
			if pos < 0 {
				ix.put(&Session{Src: src, Start: *now, End: *now})
			} else {
				ix.touch(pos, *now)
				ix.entries[pos].s.End = *now
			}
			model[src] = *now
		case 2:
			if pos >= 0 {
				if s := ix.remove(pos); s.Src != src {
					t.Fatalf("remove(%d) returned %d", src, s.Src)
				}
				delete(model, src)
			}
		case 3:
			if ix.len() > 0 {
				s := ix.remove(ix.coldest())
				delete(model, s.Src)
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
		ix := newActiveIndex()
		model := map[netmodel.Addr]telescope.Timestamp{}
		now := telescope.Timestamp(1 << 40)
		indexOps(t, &ix, model, &now, ops)
	})
}

// TestActiveIndexMatchesMapModel drives the index through random
// operation streams: key 0, re-puts, growth from empty, deletion runs
// that wrap around the end of the slot array, and clones that must stay
// independent of their originals.
func TestActiveIndexMatchesMapModel(t *testing.T) {
	wrapped := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := newActiveIndex()
		model := map[netmodel.Addr]telescope.Timestamp{}
		now := telescope.Timestamp(1 << 40)
		for round := 0; round < 40; round++ {
			ops := make([]byte, 2*(1+rng.Intn(40)))
			rng.Read(ops)
			indexOps(t, &ix, model, &now, ops)
			for i, sl := range ix.slots {
				if sl.pos != 0 && hash32(uint32(sl.src))&uint32(len(ix.slots)-1) > uint32(i) {
					wrapped++
				}
			}
			if rng.Intn(8) == 0 {
				c := ix.clone()
				cm := make(map[netmodel.Addr]telescope.Timestamp, len(model))
				for k, v := range model {
					cm[k] = v
				}
				cnow := now
				more := make([]byte, 40)
				rng.Read(more)
				indexOps(t, &c, cm, &cnow, more)
				checkIndex(t, &ix, model) // the original is untouched
				rng.Read(more)
				indexOps(t, &ix, model, &now, more)
				checkIndex(t, &c, cm) // and the clone by the original
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no probe run ever wrapped around the slot array")
	}
}

// TestDecodeRejectsDuplicateSources: an image naming one source twice
// among its active sessions is malformed, not a merge.
func TestDecodeRejectsDuplicateSources(t *testing.T) {
	sz := NewSessionizer(nil)
	sz.Observe(pkt("1.1.1.1", 0, false), nil)
	sz.Observe(pkt("2.2.2.2", 0, false), nil)
	w := ckpt.NewWriter(nil)
	sz.EncodeTo(w)
	img := w.Bytes()
	encode := func(s *Session) []byte {
		w := ckpt.NewWriter(nil)
		EncodeSession(w, s)
		return w.Bytes()
	}
	one, two := encode(sz.active.entries[0].s), encode(sz.active.entries[1].s)
	// Put the first session's bytes where the second's were.
	i := bytes.Index(img, two)
	if i < 0 {
		t.Fatal("second session not found in the image")
	}
	dup := append(append(append([]byte(nil), img[:i]...), one...), img[i+len(two):]...)
	r := ckpt.NewReader(dup)
	if got := DecodeSessionizer(r, nil, nil); got != nil || r.Err() == nil {
		t.Fatalf("duplicate sources decoded: %v, err %v", got, r.Err())
	}
}

// TestDecodeRelinksByEndThenSource: after a decode the tail is the
// smallest (End, Src), so the first budget eviction takes the same
// victim as before the checkpoint.
func TestDecodeRelinksByEndThenSource(t *testing.T) {
	sz := NewSessionizer(nil)
	sz.MaxActive = 8
	for _, src := range []string{"9.9.9.9", "5.5.5.5", "7.7.7.7", "3.3.3.3"} {
		sz.Observe(pkt(src, 0, false), nil)
	}
	sz.Observe(pkt("1.1.1.1", time.Second, false), nil)
	w := ckpt.NewWriter(nil)
	sz.EncodeTo(w)
	r := ckpt.NewReader(w.Bytes())
	d := DecodeSessionizer(r, nil, nil)
	if d == nil {
		t.Fatal(r.Err())
	}
	model := map[netmodel.Addr]telescope.Timestamp{}
	for _, e := range d.active.entries {
		model[e.s.Src] = e.s.End
	}
	checkIndex(t, &d.active, model)
	if got := d.active.entries[d.active.tail].s.Src; got != netmodel.MustAddr("3.3.3.3") {
		t.Errorf("tail after decode is %v, want 3.3.3.3", got)
	}
}
