package detect

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The cid-ratio detector counts the distinct CIDs a source used in the
// window with a HyperLogLog sketch per bucket: cidRegs four-bit
// registers, each holding the highest rank (leading zeros plus one) of
// the CID hashes routed to it. Sketches merge by taking the register
// maximum, and the merge of the ring's buckets is the sketch of the
// window's CID set, so a CID seen in two buckets counts once, wherever
// the bucket edges fall.
//
// The window's union is never stored, only the two numbers its estimate
// needs (cidWindow): a CID that raises a bucket register compares it
// with the same register of the other buckets, and only a raised union
// register moves them. So a packet costs a hash and at most Buckets
// register reads. When the ring drops a bucket that held CIDs, the two
// numbers are recomputed from the buckets left, once per bucket width
// at most.
//
// The estimate is Ertl's improved raw estimator ("New cardinality
// estimation algorithms for HyperLogLog sketches", 2017): one formula,
// nearly unbiased from a handful of CIDs up, with no switch between
// linear counting and the raw estimate. With 256 registers its standard
// error is 1.04/√256 ≈ 6.5 %: the margin the detector needs on both
// sides of MinCIDRatio = 0.5, where a fresh-SCID flood reads ≈ 1, a
// source using each CID three times ≈ 0.33 and a pool of 8 CIDs 8/quic.
const (
	cidRegs    = 256
	cidIdxBits = 8 // log2(cidRegs)
	// cidMaxRank caps a register at what four bits hold. A CID reaches
	// it with probability 2^-14, so the cap stays out of the estimate
	// below millions of CIDs a window.
	cidMaxRank = 15
)

// cidSketch holds cidRegs four-bit registers, two to a byte.
type cidSketch [cidRegs / 2]byte

func (s *cidSketch) get(j uint) uint8 { return s[j>>1] >> (j & 1 * 4) & 0xf }

// cidWindow summarises the union of a ring's bucket sketches: sum is
// Σ 2^(cidMaxRank−register) over the union's registers (fixed point,
// exact), zeros how many of them are still empty.
type cidWindow struct {
	sum   uint32
	zeros uint16
}

// emptyCIDWindow is the union of no CIDs.
var emptyCIDWindow = cidWindow{sum: cidRegs << cidMaxRank, zeros: cidRegs}

// add records one CID hash in bucket slot's sketch and in w, the
// summary of the union of buckets. The hash's low cidIdxBits pick the
// register, the leading zeros of the rest plus one are the rank.
func (w *cidWindow) add(buckets *[Buckets]cidSketch, slot int64, h uint64) {
	j := uint(h & (cidRegs - 1))
	rank := uint8(min(bits.LeadingZeros64(h>>cidIdxBits)-cidIdxBits+1, cidMaxRank))
	if rank <= buckets[slot].get(j) {
		return
	}
	var old uint8 // the union's register: the highest bucket's
	for b := range buckets {
		old = max(old, buckets[b].get(j))
	}
	sh := j & 1 * 4
	buckets[slot][j>>1] = buckets[slot][j>>1]&^(0xf<<sh) | rank<<sh
	if rank <= old {
		return
	}
	w.sum -= 1<<(cidMaxRank-old) - 1<<(cidMaxRank-rank)
	if old == 0 {
		w.zeros--
	}
}

// rebuild recomputes w from the bucket sketches, a word of sixteen
// registers at a time: the word's even and odd registers are spread
// into byte lanes, where the maximum over the buckets is lane-wise, and
// the union's bytes then index pairSum.
func (w *cidWindow) rebuild(buckets *[Buckets]cidSketch) {
	const low, high = 0x0f0f0f0f0f0f0f0f, 0x8080808080808080
	var sum uint32
	var zeros int
	for k := 0; k < len(cidSketch{}); k += 8 {
		var even, odd uint64
		for b := range buckets {
			v := binary.LittleEndian.Uint64(buckets[b][k:])
			even, odd = maxLanes(even, v&low), maxLanes(odd, v>>4&low)
		}
		// A lane is empty when adding 0x7f leaves its high bit clear.
		zeros += bits.OnesCount64(^(even+0x7f7f7f7f7f7f7f7f)&high) + bits.OnesCount64(^(odd+0x7f7f7f7f7f7f7f7f)&high)
		for u, i := even|odd<<4, 0; i < 64; i += 8 {
			sum += pairSum[uint8(u>>i)]
		}
	}
	*w = cidWindow{sum: sum, zeros: uint16(zeros)}
}

// maxLanes is the lane-wise maximum of two words of byte lanes, each
// below 0x10.
func maxLanes(a, b uint64) uint64 {
	const high = 0x8080808080808080
	ge := ((a | high) - b) & high // the lanes where a ≥ b
	m := ge>>3 - ge>>7            // 0x0f in those lanes
	return a&m | b&^m
}

// pairSum[b] is the sum term of the two registers packed in byte b.
var pairSum = func() (t [256]uint32) {
	for b := range t {
		t[b] = 1<<(cidMaxRank-b&0xf) + 1<<(cidMaxRank-b>>4)
	}
	return t
}()

// sigmaTerm[z] is cidRegs·σ(z/cidRegs), the estimator's term for z
// empty registers: σ(x) = x + Σ_{k≥1} x^(2^k)·2^(k−1), infinite at
// x = 1, where the estimate is 0.
var sigmaTerm = func() (t [cidRegs + 1]float64) {
	for z := range t {
		x := float64(z) / cidRegs
		if x == 1 {
			t[z] = math.Inf(1)
			continue
		}
		sigma, y := x, 1.0
		for prev := -1.0; sigma != prev; y += y {
			prev = sigma
			x *= x
			sigma += x * y
		}
		t[z] = cidRegs * sigma
	}
	return t
}()

// estimate returns the window's distinct-CID estimate.
func (w *cidWindow) estimate() float64 {
	const alpha = 1 / (2 * math.Ln2)
	ranked := float64(w.sum-uint32(w.zeros)<<cidMaxRank) / (1 << cidMaxRank)
	return alpha * cidRegs * cidRegs / (sigmaTerm[w.zeros] + ranked)
}

// cidHash hashes a CID for the sketch: FNV-1a over its bytes, then
// MurmurHash3's finaliser, so every bit — the register index and the
// rank alike — depends on every byte.
func cidHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
