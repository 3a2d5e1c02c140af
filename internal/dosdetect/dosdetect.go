// Package dosdetect extracts DoS attacks from backscatter sessions
// using the thresholds of Moore et al. (ToCS 2006) as applied in §5.2
// of the paper, including the threshold-weight sensitivity analysis of
// Appendix B (Figure 10).
package dosdetect

import (
	"cmp"
	"slices"

	"quicsand/internal/ckpt"
	"quicsand/internal/netmodel"
	"quicsand/internal/sessions"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// Thresholds are the Moore et al. attack criteria: a backscatter
// session is an attack when it strictly exceeds all three.
type Thresholds struct {
	// MinPackets: more than this many packets (paper: 25).
	MinPackets int
	// MinDuration: longer than this many seconds (paper: 60).
	MinDuration float64
	// MinMaxPPS: maximum 1-minute-slot rate above this (paper: 0.5).
	MinMaxPPS float64
}

// Default returns the paper's configuration (w = 1).
func Default() Thresholds {
	return Thresholds{MinPackets: 25, MinDuration: 60, MinMaxPPS: 0.5}
}

// Weighted scales every threshold by w — Appendix B's sensitivity
// knob. w < 1 relaxes detection, w > 1 tightens it.
func (t Thresholds) Weighted(w float64) Thresholds {
	return Thresholds{
		MinPackets:  int(float64(t.MinPackets) * w),
		MinDuration: t.MinDuration * w,
		MinMaxPPS:   t.MinMaxPPS * w,
	}
}

// Match reports whether a session qualifies as an attack.
func (t Thresholds) Match(s *sessions.Session) bool {
	return s.Packets > t.MinPackets &&
		s.Duration() > t.MinDuration &&
		s.MaxPPS() > t.MinMaxPPS
}

// Vector distinguishes the two attack families the paper compares.
type Vector uint8

// Attack vectors.
const (
	VectorQUIC Vector = iota
	VectorCommon
)

// String implements fmt.Stringer.
func (v Vector) String() string {
	if v == VectorQUIC {
		return "QUIC"
	}
	return "TCP/ICMP"
}

// Attack is one detected DoS event. The victim is the backscatter
// source: the host that answered spoofed packets.
//
// An attack is a 48-byte value: the month's TCP/ICMP attacks outnumber
// its QUIC attacks a hundredfold, and all that the multi-vector
// analysis reads of them is an interval on a victim. The Figure 9
// anatomy sits behind a pointer that only QUIC attacks set; embedding
// it keeps atk.UniqueSCIDs a field read, which is valid on QUIC
// attacks alone.
type Attack struct {
	Victim     netmodel.Addr
	Vector     Vector
	Start, End telescope.Timestamp
	Packets    int
	MaxPPS     float64

	*Anatomy
}

// Anatomy is a QUIC attack's Figure 9 profile. Common attacks have
// none: the sessionizer records SCIDs, peers and ports from QUIC
// responses only, and TCP/ICMP packets carry nothing to dissect.
type Anatomy struct {
	UniqueSCIDs    int
	SpoofedClients int
	ClientPorts    int
	Version        wire.Version
	InitialShare   float64
	HandshakeShare float64
}

// Duration returns the attack length in seconds.
func (a *Attack) Duration() float64 { return float64(a.End-a.Start) / 1000 }

// Overlap returns the overlapping seconds between two attacks
// (0 when disjoint).
func (a *Attack) Overlap(b *Attack) float64 {
	start := a.Start
	if b.Start > start {
		start = b.Start
	}
	end := a.End
	if b.End < end {
		end = b.End
	}
	if end <= start {
		return 0
	}
	return float64(end-start) / 1000
}

// Gap returns the seconds between two non-overlapping attacks
// (0 when they overlap).
func (a *Attack) Gap(b *Attack) float64 {
	switch {
	case b.Start > a.End:
		return float64(b.Start-a.End) / 1000
	case a.Start > b.End:
		return float64(a.Start-b.End) / 1000
	default:
		return 0
	}
}

// FromSession converts a qualifying backscatter session into an attack
// record; only a QUIC attack reads the session's anatomy.
func FromSession(s *sessions.Session, vec Vector) Attack {
	a := Attack{
		Vector:  vec,
		Victim:  s.Src,
		Start:   s.Start,
		End:     s.End,
		Packets: s.Packets,
		MaxPPS:  s.MaxPPS(),
	}
	if vec == VectorQUIC {
		a.Anatomy = &Anatomy{
			UniqueSCIDs:    s.UniqueSCIDs(),
			SpoofedClients: s.UniquePeerAddrs(),
			ClientPorts:    s.UniquePeerPorts(),
			Version:        s.DominantVersion(),
			InitialShare:   s.InitialShare(),
			HandshakeShare: s.HandshakeShare(),
		}
	}
	return a
}

// Detector accumulates sessions and extracts attacks.
type Detector struct {
	Thresholds Thresholds
	Vector     Vector
	// DropExcluded discards below-threshold sessions instead of
	// retaining them; set it for the high-volume TCP/ICMP stream.
	DropExcluded bool
	// Log, when set, receives each attack as it is found in place of
	// Attacks: its checkpoint encoding is appended (DecodeAttacks reads
	// it back), so a streaming shard keeps what it found as bytes only
	// (DESIGN.md §17). The writer only ever appends.
	Log *ckpt.Writer

	Attacks []Attack
	// Excluded tracks the below-threshold response sessions Appendix B
	// characterizes (median 11 packets, 7 s, 0.18 max pps).
	Excluded []*sessions.Session
	// total response sessions inspected.
	Inspected int

	// logged counts the attacks written to Log, and logStart is the last
	// one's start, from which the next one's is written.
	logged   int
	logStart telescope.Timestamp
}

// NewDetector creates a detector with the paper's default thresholds.
func NewDetector(vec Vector) *Detector {
	return &Detector{Thresholds: Default(), Vector: vec}
}

// Offer inspects one session; response-only sessions qualify. It keeps
// s only when DropExcluded is false (in Excluded), so only a session the
// caller owns may reach such a detector; with DropExcluded set, Offer
// reads s during the call only and may be a Sessionizer's Emit, which
// lends each session for the call.
func (d *Detector) Offer(s *sessions.Session) {
	if d.Vector == VectorQUIC && s.Kind() != sessions.KindResponseOnly {
		return
	}
	d.Inspected++
	switch {
	case !d.Thresholds.Match(s):
		if !d.DropExcluded {
			d.Excluded = append(d.Excluded, s)
		}
	case d.Log != nil:
		d.logAttack(FromSession(s, d.Vector))
	default:
		d.Attacks = append(d.Attacks, FromSession(s, d.Vector))
	}
}

// Merge absorbs other detectors' findings: attack and excluded lists
// concatenate (order is canonicalized later by Sorted), growing once to
// their total, and the inspection counts sum. Used by the sharded
// pipeline's reduction — each shard detects over its own sources, and
// no session can span shards, so the merged result equals sequential
// detection.
func (d *Detector) Merge(others ...*Detector) {
	nAtk, nExc := 0, 0
	for _, o := range others {
		nAtk += len(o.Attacks)
		nExc += len(o.Excluded)
	}
	d.Attacks = slices.Grow(d.Attacks, nAtk)
	d.Excluded = slices.Grow(d.Excluded, nExc)
	for _, o := range others {
		d.Attacks = append(d.Attacks, o.Attacks...)
		d.Excluded = append(d.Excluded, o.Excluded...)
		d.Inspected += o.Inspected
	}
}

// Sorted orders the attacks by (start, victim) in place and returns
// them. The key is unique — one victim's sessions never start at the
// same instant — so sorting again moves nothing.
func (d *Detector) Sorted() []Attack {
	slices.SortFunc(d.Attacks, func(a, b Attack) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Victim, b.Victim))
	})
	return d.Attacks
}

// VictimCounts aggregates attacks per victim — Figure 6's CDF input.
func VictimCounts(attacks []Attack) map[netmodel.Addr]int {
	m := make(map[netmodel.Addr]int)
	for _, a := range attacks {
		m[a.Victim]++
	}
	return m
}

// WeightSweep re-runs detection over the retained sessions for each
// weight — Figure 10. It returns attack counts and, via shareFn, the
// share of attacks whose victim satisfies a predicate (the paper uses
// "victim belongs to Facebook or Google").
func WeightSweep(sessionList []*sessions.Session, weights []float64, victimPred func(netmodel.Addr) bool) (counts []int, shares []float64) {
	base := Default()
	for _, w := range weights {
		th := base.Weighted(w)
		n, match := 0, 0
		for _, s := range sessionList {
			if s.Kind() != sessions.KindResponseOnly || !th.Match(s) {
				continue
			}
			n++
			if victimPred != nil && victimPred(s.Src) {
				match++
			}
		}
		counts = append(counts, n)
		if n > 0 {
			shares = append(shares, float64(match)/float64(n)*100)
		} else {
			shares = append(shares, 0)
		}
	}
	return counts, shares
}
