// Package correlate implements the multi-vector attack analysis of
// §5.2 and Appendix C: overlap-based classification of QUIC floods
// against TCP/ICMP floods on the same victim, overlap-share and
// time-gap distributions, and per-victim timelines.
package correlate

import (
	"cmp"
	"slices"
	"sort"

	"quicsand/internal/dosdetect"
	"quicsand/internal/netmodel"
)

// Category classifies one QUIC attack relative to common attacks.
type Category int

// Multi-vector categories (Figure 8).
const (
	// CategoryConcurrent: overlaps a TCP/ICMP attack on the same
	// victim by at least one second.
	CategoryConcurrent Category = iota
	// CategorySequential: same victim also hit by TCP/ICMP during the
	// measurement, but never overlapping.
	CategorySequential
	// CategoryQUICOnly: victim saw no TCP/ICMP attack at all.
	CategoryQUICOnly
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryConcurrent:
		return "concurrent"
	case CategorySequential:
		return "sequential"
	}
	return "quic-only"
}

// MinOverlapSeconds is the paper's concurrency criterion: attacks must
// share at least one second.
const MinOverlapSeconds = 1.0

// Result is the correlation of one QUIC attack. It holds a copy of the
// attack, so it names the same attack whatever later reorders the
// slice Correlate read.
type Result struct {
	Attack   dosdetect.Attack
	Category Category
	// OverlapShare is the fraction (0–1) of the QUIC attack's duration
	// covered by common attacks (Figure 12; concurrent only).
	OverlapShare float64
	// GapSeconds is the distance to the nearest common attack on the
	// same victim (Figure 13; sequential only).
	GapSeconds float64
}

// Correlator indexes common attacks by victim and classifies QUIC
// attacks against them.
type Correlator struct {
	common []dosdetect.Attack
	// byVictim holds positions in common sorted by (Victim, Start): each
	// victim's attacks are one run of it, at 4 bytes an attack.
	byVictim []int32
}

// NewCorrelator indexes the common (TCP/ICMP) attacks, which must not
// change while the correlator is in use.
func NewCorrelator(common []dosdetect.Attack) *Correlator {
	byVictim := make([]int32, len(common))
	for i := range byVictim {
		byVictim[i] = int32(i)
	}
	slices.SortFunc(byVictim, func(i, j int32) int {
		a, b := &common[i], &common[j]
		return cmp.Or(cmp.Compare(a.Victim, b.Victim), cmp.Compare(a.Start, b.Start))
	})
	return &Correlator{common: common, byVictim: byVictim}
}

// peers returns the positions of the common attacks on victim, in start
// order.
func (c *Correlator) peers(victim netmodel.Addr) []int32 {
	i, _ := slices.BinarySearchFunc(c.byVictim, victim, func(pos int32, v netmodel.Addr) int {
		return cmp.Compare(c.common[pos].Victim, v)
	})
	j := i
	for j < len(c.byVictim) && c.common[c.byVictim[j]].Victim == victim {
		j++
	}
	return c.byVictim[i:j]
}

// Classify correlates one QUIC attack. The result does not depend on
// the order of the victim's common attacks: the covered time is a
// union of intervals, and the gap a minimum.
func (c *Correlator) Classify(qa *dosdetect.Attack) Result {
	peers := c.peers(qa.Victim)
	if len(peers) == 0 {
		return Result{Attack: *qa, Category: CategoryQUICOnly}
	}

	// Compute covered seconds via interval union against the attack.
	type iv struct{ s, e float64 }
	var ivs []iv
	minGap := -1.0
	for _, pos := range peers {
		p := &c.common[pos]
		if ov := qa.Overlap(p); ov >= MinOverlapSeconds {
			s, e := qa.Start, qa.End
			if p.Start > s {
				s = p.Start
			}
			if p.End < e {
				e = p.End
			}
			ivs = append(ivs, iv{float64(s), float64(e)})
		} else {
			if g := qa.Gap(p); minGap < 0 || g < minGap {
				minGap = g
			}
		}
	}
	if len(ivs) > 0 {
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.s, b.s) })
		var covered, curS, curE float64
		curS, curE = ivs[0].s, ivs[0].e
		for _, v := range ivs[1:] {
			if v.s > curE {
				covered += curE - curS
				curS, curE = v.s, v.e
			} else if v.e > curE {
				curE = v.e
			}
		}
		covered += curE - curS
		dur := float64(qa.End - qa.Start)
		share := 1.0
		if dur > 0 {
			share = covered / dur
			if share > 1 {
				share = 1
			}
		}
		return Result{Attack: *qa, Category: CategoryConcurrent, OverlapShare: share}
	}
	return Result{Attack: *qa, Category: CategorySequential, GapSeconds: minGap}
}

// Summary aggregates Figure 8/12/13 inputs.
type Summary struct {
	Results    []Result
	Concurrent int
	Sequential int
	QUICOnly   int
}

// Correlate classifies every QUIC attack.
func Correlate(quic, common []dosdetect.Attack) *Summary {
	c := NewCorrelator(common)
	s := &Summary{}
	for i := range quic {
		r := c.Classify(&quic[i])
		s.Results = append(s.Results, r)
		switch r.Category {
		case CategoryConcurrent:
			s.Concurrent++
		case CategorySequential:
			s.Sequential++
		default:
			s.QUICOnly++
		}
	}
	return s
}

// Shares returns the category percentages (Figure 8's bar).
func (s *Summary) Shares() (concurrent, sequential, quicOnly float64) {
	total := float64(len(s.Results))
	if total == 0 {
		return 0, 0, 0
	}
	return float64(s.Concurrent) / total * 100,
		float64(s.Sequential) / total * 100,
		float64(s.QUICOnly) / total * 100
}

// OverlapShares returns the overlap fractions of concurrent attacks
// as percentages (Figure 12's sample).
func (s *Summary) OverlapShares() []float64 {
	var out []float64
	for _, r := range s.Results {
		if r.Category == CategoryConcurrent {
			out = append(out, r.OverlapShare*100)
		}
	}
	return out
}

// SequentialGaps returns the gap seconds of sequential attacks
// (Figure 13's sample).
func (s *Summary) SequentialGaps() []float64 {
	var out []float64
	for _, r := range s.Results {
		if r.Category == CategorySequential {
			out = append(out, r.GapSeconds)
		}
	}
	return out
}

// TimelineEntry is one attack interval on a victim's Figure 11 lane.
type TimelineEntry struct {
	Vector     dosdetect.Vector
	Start, End float64 // seconds since measurement start
}

// Timeline returns the merged, time-ordered attack lanes for one
// victim (Figure 11).
func Timeline(victim netmodel.Addr, quic, common []dosdetect.Attack, origin float64) []TimelineEntry {
	var out []TimelineEntry
	add := func(list []dosdetect.Attack) {
		for _, a := range list {
			if a.Victim != victim {
				continue
			}
			out = append(out, TimelineEntry{
				Vector: a.Vector,
				Start:  float64(a.Start)/1000 - origin,
				End:    float64(a.End)/1000 - origin,
			})
		}
	}
	add(quic)
	add(common)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// BusiestMultiVectorVictim picks the victim with the most QUIC attacks
// among those that also saw common attacks — the natural Figure 11
// exhibit. Returns false when none exists.
func BusiestMultiVectorVictim(quic, common []dosdetect.Attack) (netmodel.Addr, bool) {
	commonVictims := make(map[netmodel.Addr]bool, len(common))
	for _, a := range common {
		commonVictims[a.Victim] = true
	}
	counts := make(map[netmodel.Addr]int)
	for _, a := range quic {
		if commonVictims[a.Victim] {
			counts[a.Victim]++
		}
	}
	var best netmodel.Addr
	bestN := 0
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best, bestN > 0
}
