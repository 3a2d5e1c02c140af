package ibr

import (
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// slabChunk is a research scan's chunk: one slab per 256 records
// instead of one per record.
const slabChunk = 256

// maxFreeSlabs bounds a pool's freelists (packet slabs and flood
// working states); beyond it they are dropped for the GC rather than
// hoarded.
const maxFreeSlabs = 32

// slabPool recycles value-typed packet slabs ([]telescope.Packet
// arenas) within one shard. Every merger owns one and passes it to each
// source call, and every source draws its packet storage from it and
// returns it there through chunks. Recycling is off until
// Merger.EnableRecycling: a non-recycling pool allocates on get and
// drops on put, the required mode whenever a consumer may retain packet
// pointers past the sink call. The engine never does — its trace tap
// copies packet structs (DESIGN.md "Packet ownership & lifetime").
//
// A pool is single-goroutine property of its merger: sources return
// their slabs and chunks and later sources of the same shard reuse
// them. The merger's one-packet lookahead makes this safe — a slab is
// only handed out again on a later Next call, after the slab's final
// packet has been fully processed by the synchronous sink chain.
type slabPool struct {
	free [][]telescope.Packet
	// recycle gates the freelist.
	recycle bool
	// stats counts slab traffic and payload-cache lookups into the
	// owning merger's Generate bank.
	stats *telemetry.Generate
	// arrivals is the shard's flood arrival scratch, and lives holds
	// exhausted floods' working states. No packet points into either,
	// so both are reused whether or not recycle is set.
	arrivals arrivalScratch
	lives    []*floodLive
}

// floodLive returns a flood working state for activation: an exhausted
// flood's, or a new one. The caller resets every field it uses.
func (p *slabPool) floodLive() *floodLive {
	if len(p.lives) == 0 {
		return new(floodLive)
	}
	l := p.lives[len(p.lives)-1]
	p.lives[len(p.lives)-1] = nil
	p.lives = p.lives[:len(p.lives)-1]
	return l
}

// putFloodLive keeps an exhausted flood's working state for the next
// activation on the shard. Its chunks must already be released.
func (p *slabPool) putFloodLive(l *floodLive) {
	if len(p.lives) < maxFreeSlabs {
		p.lives = append(p.lives, l)
	}
}

// get returns an empty slab with capacity ≥ n, reusing a free one when
// available. Only the most recently freed slabs are inspected so get
// stays O(1) under mixed slab sizes.
func (p *slabPool) get(n int) []telescope.Packet {
	p.stats.SlabGets++
	if p.recycle {
		lo := len(p.free) - 4
		if lo < 0 {
			lo = 0
		}
		for i := len(p.free) - 1; i >= lo; i-- {
			if cap(p.free[i]) >= n {
				s := p.free[i]
				last := len(p.free) - 1
				p.free[i] = p.free[last]
				p.free[last] = nil
				p.free = p.free[:last]
				p.stats.SlabReuses++
				return s[:0]
			}
		}
	}
	return make([]telescope.Packet, 0, n)
}

// put returns a slab to the pool for reuse. The caller must guarantee
// no packet inside s is still referenced downstream.
func (p *slabPool) put(s []telescope.Packet) {
	if !p.recycle || cap(s) == 0 {
		return
	}
	if len(p.free) < maxFreeSlabs {
		p.free = append(p.free, s[:0])
	}
}

// ensure returns s with room for at least extra more packets. Growth
// goes through the pool: the values move to a larger (possibly
// recycled) arena and the abandoned one returns to the freelist —
// a plain append would leak the pool's slab to the GC mid-build.
// Safe during building only, before any packet pointer escapes.
func (p *slabPool) ensure(s []telescope.Packet, extra int) []telescope.Packet {
	need := len(s) + extra
	if cap(s) >= need {
		return s
	}
	if c := 2 * cap(s); c > need {
		need = c
	}
	grown := p.get(need)[:len(s)]
	copy(grown, s)
	p.put(s)
	return grown
}

// chunks is a source's packet storage: the chunk being handed out and
// the one before it. Research scans and floods write one chunk at a
// time (fresh); a bot or responder builds its whole stream as one
// chunk. fresh retires the current chunk and returns the previous one
// to the pool, because the current chunk's last packet is the one the
// merger has just returned and its caller has not yet consumed; every
// packet of the chunk before it has been. release returns both at
// exhaustion: the merger's one-packet lookahead guarantees the final
// packet is consumed before a later Next can hand either chunk to
// another source.
type chunks struct {
	size         int // capacity of every fresh chunk: a source's chunks are interchangeable
	cur, retired []telescope.Packet
	j            int // next packet of cur to hand out
}

// used reports whether every packet of the current chunk has been
// handed out.
func (c *chunks) used() bool { return c.j >= len(c.cur) }

// fresh retires the current chunk and returns a new one of n ≤ size
// packets for the caller to write.
func (c *chunks) fresh(pool *slabPool, n int) []telescope.Packet {
	pool.put(c.retired)
	c.retired = c.cur
	c.cur = pool.get(c.size)[:n]
	c.j = 0
	return c.cur
}

// take hands out the current chunk's next packet.
func (c *chunks) take() *telescope.Packet {
	p := &c.cur[c.j]
	c.j++
	return p
}

// release returns both chunks to the pool at exhaustion.
func (c *chunks) release(pool *slabPool) {
	pool.put(c.retired)
	pool.put(c.cur)
	c.cur, c.retired, c.j = nil, nil, 0
}
