// Package ibr generates the Internet background radiation the
// telescope captures: research scanners, malicious scanners from
// eyeball networks, misconfiguration noise, and — centrally — the
// backscatter of randomly spoofed QUIC and TCP/ICMP floods. The
// generator is an event-driven simulation over virtual April 2021 time
// whose per-event structure is calibrated to the paper's published
// aggregates; every analysis result downstream is *recomputed* from
// the emitted packets, never copied from the paper.
package ibr

import (
	"cmp"
	"slices"

	"quicsand/internal/netmodel"
	"quicsand/internal/telemetry"
	"quicsand/internal/telescope"
)

// Source is one planned event and the generator of its packets, in
// non-decreasing time order. Every source models one emitting host, so
// all its packets share one source address — the invariant the sharded
// pipeline partitions on. Only this package implements it: research
// sweeps, scanning bots, flood victims and misconfigured responders.
//
// Packet ownership: the *telescope.Packet returned by next points into
// storage drawn from the shard's slab pool. With a recycling merger it
// is guaranteed valid only until the following merger Next call,
// because every source hands its storage back to the pool through
// chunks; without recycling nothing is reused. Consumers that retain
// packets must copy them — see DESIGN.md "Packet ownership & lifetime".
// The replay path has a twin contract: capture.Source packets are valid
// only until the following Next call, and capture.Scatter copies them
// into per-shard slabs governed by the same rules (DESIGN.md §10).
type Source interface {
	// StartTime returns a lower bound on the first packet's timestamp,
	// known before any next call. The merger uses it to activate
	// sources lazily; activation re-keys on the true first timestamp.
	StartTime() telescope.Timestamp
	// Src returns the single source address all packets carry.
	Src() netmodel.Addr
	// plannedPackets returns the packets the schedule plans — exactly
	// for research sweeps and floods, in expectation for bots and
	// misconfigured responders: the source's weight in Partition.
	plannedPackets() uint64
	// next returns successive packets in non-decreasing time order,
	// drawing their storage from pool and returning it there; ok=false
	// when exhausted. Every call of one source gets the same pool.
	next(pool *slabPool) (*telescope.Packet, bool)
}

// mergeKey orders the merge by (timestamp, source address, schedule
// index) — a strict total order. The address component makes the order
// reconstructible across shard counts: packets of one address always
// share a shard, so a cross-shard merge keyed on (timestamp, address)
// with per-shard stability reproduces exactly this sequence (see
// DESIGN.md §8).
type mergeKey struct {
	at  telescope.Timestamp
	src netmodel.Addr
	id  int32 // schedule-order index: the canonical tie-break
}

func (k *mergeKey) before(o *mergeKey) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.src != o.src {
		return k.src < o.src
	}
	return k.id < o.id
}

// mergeEntry is one registered source, keyed by its StartTime until it
// is activated; from then on it carries the source's buffered packet.
type mergeEntry struct {
	mergeKey
	pkt    *telescope.Packet // the live source's next packet
	source Source
}

// liveEntry is a live source's place in the heap: its buffered
// packet's key and the index of its mergeEntry. It holds no pointers,
// so sifting moves three words and never meets a write barrier.
type liveEntry struct {
	mergeKey
	pos int32
}

// Merger interleaves many sources into one canonically ordered stream
// while materializing each source's state only once its first packet
// is due, keeping memory proportional to concurrently active events.
//
// Sources wait in a list sorted once by (StartTime, src, id); the ones
// that have produced a packet also sit in a binary min-heap keyed
// (pkt.TS, src, id). The next packet comes from whichever of the
// waiting head and the heap minimum orders first — the minimum over
// every unexhausted source, exactly what a tournament over the whole
// schedule would pick — so the per-packet cost follows the number of
// sources live at that instant (tens), not the number scheduled (tens
// of thousands), and exhausted sources leave the structure.
type Merger struct {
	// entries holds every registered source: in registration order
	// until the first Next, then entries[next:] sorted by start key;
	// entries before next have been activated and no longer move. It is
	// never truncated: its length is the planned-event count and the
	// next schedule index.
	entries []mergeEntry
	next    int
	sorted  bool
	live    []liveEntry // min-heap of activated, unexhausted sources
	// pool is the shard's slab pool, passed to every source call; its
	// freelist only engages after EnableRecycling.
	pool *slabPool
	// tel accumulates this shard's generator counters; read via
	// Telemetry after the stream is drained.
	tel telemetry.Generate
}

// NewMerger builds a merger over the sources. Source order fixes the
// canonical tie-break, so build shard mergers from schedule-ordered
// subsets.
func NewMerger(sources ...Source) *Merger {
	m := &Merger{entries: make([]mergeEntry, 0, len(sources))}
	m.pool = &slabPool{stats: &m.tel}
	for _, s := range sources {
		m.Add(s)
	}
	return m
}

// Telemetry returns the shard's generator counters; call after the
// stream is drained.
func (m *Merger) Telemetry() telemetry.Generate {
	t := m.tel
	t.EventsPlanned = uint64(len(m.entries))
	return t
}

// EnableRecycling turns on the merger's slab freelist: exhausted sources
// return their packet arenas for later sources of this merger to reuse.
// Only legal when every packet is fully consumed during the sink call it
// is emitted in, as it is in the engine, whose trace tap copies the
// packet struct; never when a consumer keeps packet pointers past that
// call. Payloads are never recycled: they are shared read-only
// templates or GC-owned.
func (m *Merger) EnableRecycling() {
	m.pool.recycle = true
}

// Add registers another source; legal at any time, also mid-stream
// (the unactivated tail is re-sorted on the following Next).
func (m *Merger) Add(s Source) {
	m.entries = append(m.entries, mergeEntry{
		mergeKey: mergeKey{at: s.StartTime(), src: s.Src(), id: int32(len(m.entries))},
		source:   s,
	})
	m.sorted = false
}

// Next returns the globally next packet, or nil at end of stream.
//
// Sources are activated (first packet pulled, slabs drawn from the
// pool) only here, before the packet to return is chosen, and the
// winner is advanced just before returning — so a slab released by an
// exhausted source can be handed to another source no earlier than the
// following Next call, after the caller has consumed the packet that
// still points into it (DESIGN.md §9).
func (m *Merger) Next() *telescope.Packet {
	if !m.sorted {
		slices.SortFunc(m.entries[m.next:], func(a, b mergeEntry) int {
			switch {
			case a.before(&b.mergeKey):
				return -1
			case b.before(&a.mergeKey):
				return 1
			}
			return 0
		})
		m.sorted = true
	}
	// Activate while the waiting head orders before every live packet:
	// pull its first packet and key it on the true timestamp (StartTime
	// is only a lower bound). A source empty on activation is dropped.
	for m.next < len(m.entries) && (len(m.live) == 0 || m.entries[m.next].before(&m.live[0].mergeKey)) {
		e := &m.entries[m.next]
		if pkt, ok := e.source.next(m.pool); ok {
			m.tel.EventsEmitted++
			e.pkt = pkt
			m.push(liveEntry{mergeKey{pkt.TS, e.src, e.id}, int32(m.next)})
		}
		m.next++
	}
	if len(m.live) == 0 {
		return nil
	}
	top := &m.live[0]
	e := &m.entries[top.pos]
	out := e.pkt
	m.tel.Packets++
	if nxt, ok := e.source.next(m.pool); ok {
		e.pkt, top.at = nxt, nxt.TS
	} else {
		last := len(m.live) - 1
		m.live[0] = m.live[last]
		m.live = m.live[:last]
	}
	m.fixTop()
	return out
}

// push adds an activated source to the live heap.
func (m *Merger) push(e liveEntry) {
	m.live = append(m.live, e)
	h := m.live
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&h[parent].mergeKey) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// fixTop restores the heap after the root's key grew (or the root was
// replaced by the last leaf).
func (m *Merger) fixTop() {
	h := m.live
	if len(h) < 2 {
		return
	}
	e := h[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(&h[c].mergeKey) {
			c++
		}
		if !h[c].before(&e.mergeKey) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// Run drains the merged stream into sink.
func (m *Merger) Run(sink func(*telescope.Packet)) {
	for {
		p := m.Next()
		if p == nil {
			return
		}
		sink(p)
	}
}

// ShardOf maps a source address onto one of n shards with a
// multiplicative hash; adjacent addresses (one subnet's hosts) spread
// across shards instead of clustering.
func ShardOf(a netmodel.Addr, n int) int {
	return int((uint64(a) * 0x9e3779b97f4a7c15 >> 33) % uint64(n))
}

// Partition splits schedule-ordered sources into n groups by source
// address, preserving schedule order within each group. All packets of
// one address land in one group, so per-group merged streams keep
// every per-source gap and session boundary intact.
//
// Addresses are dealt by planned packets: each address weighs the sum
// of its sources' plannedPackets, and the addresses, heaviest first
// (lower address on ties), go one by one to the least-loaded group
// (lower index on ties). No group then
// carries more than the mean plus the heaviest single address. A
// stored capture cannot be weighed before it is read, so the replay
// scatter and the Streamer keep ShardOf; only the Analysis is compared
// across the two maps, and it does not depend on either.
func Partition(sources []Source, n int) [][]Source {
	type addrLoad struct {
		addr netmodel.Addr
		load uint64
	}
	// slot maps an address to its loads index, then to its group.
	slot := make(map[netmodel.Addr]int)
	var loads []addrLoad
	for _, s := range sources {
		i, ok := slot[s.Src()]
		if !ok {
			i = len(loads)
			slot[s.Src()] = i
			loads = append(loads, addrLoad{addr: s.Src()})
		}
		loads[i].load += s.plannedPackets()
	}
	slices.SortFunc(loads, func(a, b addrLoad) int {
		if c := cmp.Compare(b.load, a.load); c != 0 {
			return c
		}
		return cmp.Compare(a.addr, b.addr)
	})
	total := make([]uint64, n)
	for _, l := range loads {
		k := 0
		for j := 1; j < n; j++ {
			if total[j] < total[k] {
				k = j
			}
		}
		total[k] += l.load
		slot[l.addr] = k
	}
	groups := make([][]Source, n)
	for _, s := range sources {
		k := slot[s.Src()]
		groups[k] = append(groups[k], s)
	}
	return groups
}
