// Package srcindex keeps per-source state in last-touch order: the
// active sessions of a sessionizer and the window states of a detector
// bank are both one Index.
//
// Values sit in a dense slice; an open-addressing index maps each
// source address to its position there, and a doubly linked last-touch
// list runs over the positions from the tail (smallest End) to the head
// (latest packet). Packets arrive in time order, so a touched or new
// source goes to the head and the list stays sorted by End: expiry pops
// silent sources off the tail and visits nothing else, and a budget's
// victim is in the tail's equal-End group.
//
// Spoofed sources are the attacker's choice, so addresses hash under
// seeds drawn once per process (Go's maps are seeded for the same
// reason): under a fixed hash a flood could pick sources that share one
// probe chain. Nothing a caller emits may depend on positions or slot
// layout; every caller sorts what it emits.
package srcindex

import (
	"math/bits"
	"math/rand/v2"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

var seed0, seed1 = rand.Uint64(), rand.Uint64()

// Hash32 hashes a 32-bit key (an address, or a port widened) under the
// process seeds; its low bits pick the home slot of an open-addressing
// table.
func Hash32(k uint32) uint32 {
	x := uint64(k)
	return uint32(mix(mix(x^seed0, x^seed1^0xa0761d6478bd642f), 0xe7037ed1a0b428db))
}

// mix is a 64×64→128-bit multiply folded to 64 bits.
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// minSlots is the initial slot count (a power of two); the slots are
// kept at most 3/4 full.
const minSlots = 16

// Index maps source addresses to values of type V, each stamped with
// its source's last packet time (End). Make one with New. Positions
// are int32s valid until the next Put or Remove.
type Index[V any] struct {
	entries    []entry[V]
	slots      []slot
	head, tail int32 // -1 while the list is empty
}

type entry[V any] struct {
	val          V
	src          netmodel.Addr
	end          telescope.Timestamp
	older, newer int32 // list neighbours; -1 past the tail / head
}

// slot maps a source to its entry: pos is the entry's index plus one,
// and 0 marks an empty slot.
type slot struct {
	src netmodel.Addr
	pos int32
}

// New returns an empty index.
func New[V any]() Index[V] { return Index[V]{head: -1, tail: -1} }

// Len returns the number of sources held.
func (ix *Index[V]) Len() int { return len(ix.entries) }

// At returns the value at pos.
func (ix *Index[V]) At(pos int32) *V { return &ix.entries[pos].val }

// Src returns the source at pos.
func (ix *Index[V]) Src(pos int32) netmodel.Addr { return ix.entries[pos].src }

// End returns the last packet time of the source at pos.
func (ix *Index[V]) End(pos int32) telescope.Timestamp { return ix.entries[pos].end }

// Tail returns the position of the source with the smallest End, or -1
// when the index is empty.
func (ix *Index[V]) Tail() int32 { return ix.tail }

// Lookup returns src's position, or -1 when it is not held.
func (ix *Index[V]) Lookup(src netmodel.Addr) int32 {
	if len(ix.slots) == 0 {
		return -1
	}
	mask := uint32(len(ix.slots) - 1)
	for i := Hash32(uint32(src)) & mask; ; i = (i + 1) & mask {
		switch sl := ix.slots[i]; {
		case sl.pos == 0:
			return -1
		case sl.src == src:
			return sl.pos - 1
		}
	}
}

// slotOf returns the slot of src, which must be held.
func (ix *Index[V]) slotOf(src netmodel.Addr) uint32 {
	mask := uint32(len(ix.slots) - 1)
	i := Hash32(uint32(src)) & mask
	for ix.slots[i].src != src || ix.slots[i].pos == 0 {
		i = (i + 1) & mask
	}
	return i
}

// Put adds v for src, which must not be held, last touched at end, and
// returns its position.
func (ix *Index[V]) Put(src netmodel.Addr, end telescope.Timestamp, v V) int32 {
	if 4*(len(ix.entries)+1) > 3*len(ix.slots) {
		ix.grow()
	}
	pos := int32(len(ix.entries))
	ix.entries = append(ix.entries, entry[V]{val: v, src: src, end: end})
	mask := uint32(len(ix.slots) - 1)
	i := Hash32(uint32(src)) & mask
	for ix.slots[i].pos != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = slot{src: src, pos: pos + 1}
	ix.link(pos)
	return pos
}

func (ix *Index[V]) grow() {
	old := ix.slots
	ix.slots = make([]slot, max(2*len(old), minSlots))
	mask := uint32(len(ix.slots) - 1)
	for _, sl := range old {
		if sl.pos == 0 {
			continue
		}
		i := Hash32(uint32(sl.src)) & mask
		for ix.slots[i].pos != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = sl
	}
}

// Touch records a packet at end on the source at pos and moves it to
// its place in the list: the head, for a packet in time order.
func (ix *Index[V]) Touch(pos int32, end telescope.Timestamp) {
	e := &ix.entries[pos]
	e.end = end
	if pos == ix.head && (e.older < 0 || ix.entries[e.older].end <= end) {
		return
	}
	ix.unlink(pos)
	ix.link(pos)
}

// link inserts the entry at pos behind every entry with a later End,
// which is at the head unless packets arrive out of time order.
func (ix *Index[V]) link(pos int32) {
	e := &ix.entries[pos]
	older := ix.head
	for older >= 0 && ix.entries[older].end > e.end {
		older = ix.entries[older].older
	}
	newer := ix.tail
	if older >= 0 {
		newer = ix.entries[older].newer
		ix.entries[older].newer = pos
	} else {
		ix.tail = pos
	}
	if newer >= 0 {
		ix.entries[newer].older = pos
	} else {
		ix.head = pos
	}
	e.older, e.newer = older, newer
}

func (ix *Index[V]) unlink(pos int32) {
	e := &ix.entries[pos]
	if e.older >= 0 {
		ix.entries[e.older].newer = e.newer
	} else {
		ix.tail = e.newer
	}
	if e.newer >= 0 {
		ix.entries[e.newer].older = e.older
	} else {
		ix.head = e.older
	}
}

// Remove drops the source at pos and returns its value: backward-shift
// deletion in the index, and a swap-remove in the slice that repoints
// the moved entry's slot and list neighbours.
func (ix *Index[V]) Remove(pos int32) V {
	v := ix.entries[pos].val
	ix.unlink(pos)
	ix.unindex(ix.slotOf(ix.entries[pos].src))
	last := int32(len(ix.entries) - 1)
	if pos != last {
		m := ix.entries[last]
		ix.entries[pos] = m
		ix.slots[ix.slotOf(m.src)].pos = pos + 1
		if m.older >= 0 {
			ix.entries[m.older].newer = pos
		} else {
			ix.tail = pos
		}
		if m.newer >= 0 {
			ix.entries[m.newer].older = pos
		} else {
			ix.head = pos
		}
	}
	ix.entries[last] = entry[V]{}
	ix.entries = ix.entries[:last]
	return v
}

// unindex empties slot i and shifts back every later slot of its probe
// run that may move, so lookups never need tombstones.
func (ix *Index[V]) unindex(i uint32) {
	mask := uint32(len(ix.slots) - 1)
	for j := (i + 1) & mask; ix.slots[j].pos != 0; j = (j + 1) & mask {
		if home := Hash32(uint32(ix.slots[j].src)) & mask; (j-home)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = slot{}
}

// Coldest returns a budget's victim: the smallest source of the tail's
// equal-End group, which is the smallest (End, Src) overall. The index
// must not be empty.
func (ix *Index[V]) Coldest() int32 {
	best := ix.tail
	end, src := ix.entries[best].end, ix.entries[best].src
	for p := ix.entries[best].newer; p >= 0 && ix.entries[p].end == end; p = ix.entries[p].newer {
		if s := ix.entries[p].src; s < src {
			best, src = p, s
		}
	}
	return best
}

// AppendValues appends the held values to dst in position order.
func (ix *Index[V]) AppendValues(dst []V) []V {
	for i := range ix.entries {
		dst = append(dst, ix.entries[i].val)
	}
	return dst
}

// Reset empties the index, keeping its storage.
func (ix *Index[V]) Reset() {
	clear(ix.entries)
	ix.entries = ix.entries[:0]
	clear(ix.slots)
	ix.head, ix.tail = -1, -1
}
