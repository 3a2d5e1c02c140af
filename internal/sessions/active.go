package sessions

import (
	"cmp"
	"slices"

	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
)

// activeIndex holds a sessionizer's active sessions. They sit in a dense
// slice; an open-addressing index maps each source address to its
// position there, and a doubly linked last-touch list runs over the
// positions from the tail (smallest End) to the head (latest packet).
// Packets arrive in time order, so a touched or new session goes to the
// head and the list stays sorted by End: a sweep pops expired sessions
// off the tail and visits nothing else, and the budget's victim is in
// the tail's equal-End group.
type activeIndex struct {
	entries    []activeEntry
	slots      []activeSlot
	head, tail int32 // -1 while the list is empty
}

type activeEntry struct {
	s            *Session
	end          telescope.Timestamp // s.End, beside the links the list walks
	older, newer int32               // list neighbours; -1 past the tail / head
}

// activeSlot maps a source to its entry: pos is the entry's index plus
// one, and 0 marks an empty slot.
type activeSlot struct {
	src netmodel.Addr
	pos int32
}

func newActiveIndex() activeIndex { return activeIndex{head: -1, tail: -1} }

func (ix *activeIndex) len() int { return len(ix.entries) }

// lookup returns src's position, or -1 when it has no active session.
func (ix *activeIndex) lookup(src netmodel.Addr) int32 {
	if len(ix.slots) == 0 {
		return -1
	}
	mask := uint32(len(ix.slots) - 1)
	for i := hash32(uint32(src)) & mask; ; i = (i + 1) & mask {
		switch sl := ix.slots[i]; {
		case sl.pos == 0:
			return -1
		case sl.src == src:
			return sl.pos - 1
		}
	}
}

// slotOf returns the slot of src, which must be indexed.
func (ix *activeIndex) slotOf(src netmodel.Addr) uint32 {
	mask := uint32(len(ix.slots) - 1)
	i := hash32(uint32(src)) & mask
	for ix.slots[i].src != src || ix.slots[i].pos == 0 {
		i = (i + 1) & mask
	}
	return i
}

// put adds s, whose source must have no active session, and links it.
func (ix *activeIndex) put(s *Session) {
	ix.link(ix.insert(s))
}

// insert adds s to the slice and the index without linking it.
func (ix *activeIndex) insert(s *Session) int32 {
	if overLoaded(len(ix.entries)+1, len(ix.slots)) {
		ix.grow()
	}
	pos := int32(len(ix.entries))
	ix.entries = append(ix.entries, activeEntry{s: s, end: s.End, older: -1, newer: -1})
	mask := uint32(len(ix.slots) - 1)
	i := hash32(uint32(s.Src)) & mask
	for ix.slots[i].pos != 0 {
		i = (i + 1) & mask
	}
	ix.slots[i] = activeSlot{src: s.Src, pos: pos + 1}
	return pos
}

func (ix *activeIndex) grow() {
	old := ix.slots
	ix.slots = make([]activeSlot, max(2*len(old), minSlots))
	mask := uint32(len(ix.slots) - 1)
	for _, sl := range old {
		if sl.pos == 0 {
			continue
		}
		i := hash32(uint32(sl.src)) & mask
		for ix.slots[i].pos != 0 {
			i = (i + 1) & mask
		}
		ix.slots[i] = sl
	}
}

// touch records a packet at end on the session at pos and moves it to
// its place in the list: the head, for a packet in time order.
func (ix *activeIndex) touch(pos int32, end telescope.Timestamp) {
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
func (ix *activeIndex) link(pos int32) {
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

func (ix *activeIndex) unlink(pos int32) {
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

// remove drops the session at pos and returns it: backward-shift
// deletion in the index, and a swap-remove in the slice that repoints
// the moved entry's slot and list neighbours.
func (ix *activeIndex) remove(pos int32) *Session {
	s := ix.entries[pos].s
	ix.unlink(pos)
	ix.unindex(ix.slotOf(s.Src))
	last := int32(len(ix.entries) - 1)
	if pos != last {
		m := ix.entries[last]
		ix.entries[pos] = m
		ix.slots[ix.slotOf(m.s.Src)].pos = pos + 1
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
	ix.entries[last] = activeEntry{}
	ix.entries = ix.entries[:last]
	return s
}

// unindex empties slot i and shifts back every later slot of its probe
// run that may move, so lookups never need tombstones.
func (ix *activeIndex) unindex(i uint32) {
	mask := uint32(len(ix.slots) - 1)
	for j := (i + 1) & mask; ix.slots[j].pos != 0; j = (j + 1) & mask {
		if home := hash32(uint32(ix.slots[j].src)) & mask; (j-home)&mask >= (j-i)&mask {
			ix.slots[i] = ix.slots[j]
			i = j
		}
	}
	ix.slots[i] = activeSlot{}
}

// coldest returns the budget's victim: the smallest source of the
// tail's equal-End group, which is the smallest (End, Src) overall. The
// index must not be empty.
func (ix *activeIndex) coldest() int32 {
	best := ix.tail
	end, src := ix.entries[best].end, ix.entries[best].s.Src
	for p := ix.entries[best].newer; p >= 0 && ix.entries[p].end == end; p = ix.entries[p].newer {
		if s := ix.entries[p].s.Src; s < src {
			best, src = p, s
		}
	}
	return best
}

// relink rebuilds the list in (End, Src) order, so the tail holds the
// smallest End; a decoded index's entries arrive in source order.
func (ix *activeIndex) relink() {
	order := make([]int32, len(ix.entries))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ea, eb := &ix.entries[a], &ix.entries[b]
		return cmp.Or(cmp.Compare(ea.end, eb.end), cmp.Compare(ea.s.Src, eb.s.Src))
	})
	ix.head, ix.tail = -1, -1
	for _, pos := range order {
		ix.link(pos)
	}
}

// appendSessions appends the active sessions to dst in slice order.
func (ix *activeIndex) appendSessions(dst []*Session) []*Session {
	for _, e := range ix.entries {
		dst = append(dst, e.s)
	}
	return dst
}

// reset empties the index, keeping its storage.
func (ix *activeIndex) reset() {
	clear(ix.entries)
	ix.entries = ix.entries[:0]
	clear(ix.slots)
	ix.head, ix.tail = -1, -1
}

// clone deep-copies the index: slots, links and every session.
func (ix *activeIndex) clone() activeIndex {
	c := activeIndex{entries: slices.Clone(ix.entries), slots: slices.Clone(ix.slots), head: ix.head, tail: ix.tail}
	for i := range c.entries {
		c.entries[i].s = c.entries[i].s.Clone()
	}
	return c
}

// sortBySrc orders sessions by source address: the order sweeps, Flush
// and checkpoints use, so none of them depends on table layout.
func sortBySrc(list []*Session) {
	slices.SortFunc(list, func(a, b *Session) int { return cmp.Compare(a.Src, b.Src) })
}
