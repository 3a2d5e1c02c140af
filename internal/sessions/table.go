package sessions

import (
	"bytes"
	"hash/maphash"
	"slices"

	"quicsand/internal/netmodel"
	"quicsand/internal/srcindex"
)

// The anatomy sets' spilled arms: exact open-addressing tables with
// linear probing, kept at most 3/4 full. Peer addresses and ports are
// stored as integer keys; SCIDs live length-prefixed in one byte arena
// per set, and a table slot holds an arena offset and a 32-bit hash tag,
// so no SCID ever becomes a string.
//
// Every table in this package hashes under seeds drawn once per process
// (integer keys through srcindex.Hash32). Spoofed sources, client ports
// and SCIDs are the attacker's choice, and under a fixed hash a flood
// could pick keys that share one probe chain (Go's maps are seeded for
// the same reason). No output depends on the seeds: whatever is encoded
// or emitted is sorted first.
var scidSeed = maphash.MakeSeed()

// minSlots is every table's initial size (a power of two).
const minSlots = 16

// overLoaded reports whether n keys overfill a table of the given size.
func overLoaded(n, slots int) bool { return n*4 > slots*3 }

// tableSize is the smallest table that holds n keys within the load bound.
func tableSize(n int) int {
	size := minSlots
	for overLoaded(n, size) {
		size *= 2
	}
	return size
}

// intKey is the key type of the integer sets: peer addresses and ports.
type intKey interface{ ~uint16 | ~uint32 }

// smallSet counts distinct peer addresses or ports: inline storage for
// the tiny common case, one spill into an intTable for diverse sessions.
type smallSet[K intKey] struct {
	inline [8]K
	n      uint8
	t      *intTable[K]
}

type (
	addrSet = smallSet[netmodel.Addr]
	portSet = smallSet[uint16]
)

func (s *smallSet[K]) add(k K) {
	if s.t != nil {
		s.t.add(k)
		return
	}
	for i := uint8(0); i < s.n; i++ {
		if s.inline[i] == k {
			return
		}
	}
	if int(s.n) < len(s.inline) {
		s.inline[s.n] = k
		s.n++
		return
	}
	s.spill()
	s.t.add(k)
}

// spill moves the inline keys into a table sized for twice as many.
func (s *smallSet[K]) spill() {
	s.t = &intTable[K]{slots: make([]K, tableSize(2*len(s.inline)))}
	for _, k := range s.inline[:s.n] {
		s.t.add(k)
	}
}

func (s *smallSet[K]) count() int {
	if s.t != nil {
		return s.t.count()
	}
	return int(s.n)
}

// intTable is an exact set of integer keys. A zero slot is empty, so
// key 0 is a flag of its own.
type intTable[K intKey] struct {
	slots   []K
	n       int // keys in slots, 0 excluded
	hasZero bool
}

func (t *intTable[K]) add(k K) {
	if k == 0 {
		t.hasZero = true
		return
	}
	mask := uint32(len(t.slots) - 1)
	for i := srcindex.Hash32(uint32(k)) & mask; ; i = (i + 1) & mask {
		switch t.slots[i] {
		case k:
			return
		case 0:
			t.slots[i] = k
			if t.n++; overLoaded(t.n, len(t.slots)) {
				t.grow()
			}
			return
		}
	}
}

func (t *intTable[K]) grow() {
	old := t.slots
	t.slots = make([]K, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, k := range old {
		if k == 0 {
			continue
		}
		i := srcindex.Hash32(uint32(k)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = k
	}
}

func (t *intTable[K]) count() int {
	if t.hasZero {
		return t.n + 1
	}
	return t.n
}

// sortedKeys returns the keys in ascending order.
func (t *intTable[K]) sortedKeys() []K {
	keys := make([]K, 0, t.count())
	if t.hasZero {
		keys = append(keys, 0)
	}
	for _, k := range t.slots {
		if k != 0 {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

// scidInline is how many distinct SCIDs a set finds by scanning its
// arena before it spills into a scidTable.
const scidInline = 4

// scidSet counts distinct SCIDs. Each distinct SCID is stored once,
// length-prefixed, in arena, in insertion order. The first scidInline
// are found by a linear scan; from the next one on a scidTable indexes
// the arena.
type scidSet struct {
	arena []byte
	n     uint8 // SCIDs in arena while t == nil
	t     *scidTable
}

// scidTable indexes a spilled scidSet's arena.
type scidTable struct {
	slots []scidSlot
	n     int
}

// scidSlot locates one SCID: off is its length byte's arena offset plus
// one (0 marks an empty slot), tag its hash, whose low bits are also its
// home slot, so growing never rehashes a key.
type scidSlot struct{ off, tag uint32 }

func scidHash(b []byte) uint32 { return uint32(maphash.Bytes(scidSeed, b)) }

// scidAt returns the SCID whose length byte is arena[off].
func scidAt(arena []byte, off int) []byte {
	return arena[off+1 : off+1+int(arena[off])]
}

// appendSCID appends b length-prefixed, growing the arena at most once.
func appendSCID(arena, b []byte) []byte {
	arena = slices.Grow(arena, 1+len(b))
	arena = append(arena, byte(len(b)))
	return append(arena, b...)
}

func (s *scidSet) add(b []byte) {
	if s.t == nil {
		for off := 0; off < len(s.arena); off += 1 + int(s.arena[off]) {
			if bytes.Equal(scidAt(s.arena, off), b) {
				return
			}
		}
		if s.n < scidInline {
			s.arena = appendSCID(s.arena, b)
			s.n++
			return
		}
		s.spill()
	}
	s.insert(b)
}

// spill indexes the inline SCIDs in a table sized for twice as many,
// re-adding them to a fresh arena.
func (s *scidSet) spill() {
	inline := s.arena
	s.arena = make([]byte, 0, max(2*len(inline), 64))
	s.t = &scidTable{slots: make([]scidSlot, tableSize(2*scidInline))}
	for off := 0; off < len(inline); off += 1 + int(inline[off]) {
		s.insert(scidAt(inline, off))
	}
}

// insert adds b to the spilled arm unless it is there already.
func (s *scidSet) insert(b []byte) {
	t := s.t
	h := scidHash(b)
	mask := uint32(len(t.slots) - 1)
	i := h & mask
	for ; t.slots[i].off != 0; i = (i + 1) & mask {
		if sl := t.slots[i]; sl.tag == h && bytes.Equal(scidAt(s.arena, int(sl.off-1)), b) {
			return
		}
	}
	t.slots[i] = scidSlot{off: uint32(len(s.arena)) + 1, tag: h}
	s.arena = appendSCID(s.arena, b)
	if t.n++; overLoaded(t.n, len(t.slots)) {
		t.grow()
	}
}

func (t *scidTable) grow() {
	old := t.slots
	t.slots = make([]scidSlot, 2*len(old))
	mask := uint32(len(t.slots) - 1)
	for _, sl := range old {
		if sl.off == 0 {
			continue
		}
		i := sl.tag & mask
		for t.slots[i].off != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = sl
	}
}

func (s *scidSet) count() int {
	if s.t != nil {
		return s.t.n
	}
	return int(s.n)
}

// sortedOffsets returns every stored SCID's arena offset, ordered by
// the SCIDs' bytes.
func (s *scidSet) sortedOffsets() []int {
	offs := make([]int, 0, s.count())
	for off := 0; off < len(s.arena); off += 1 + int(s.arena[off]) {
		offs = append(offs, off)
	}
	slices.SortFunc(offs, func(a, b int) int {
		return bytes.Compare(scidAt(s.arena, a), scidAt(s.arena, b))
	})
	return offs
}
