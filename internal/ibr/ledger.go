package ibr

// The scheduling ledger: an exact record of every event the generator
// scheduled, captured at plan time, before a single packet is built.
// The analytic oracle (internal/oracle) derives expected analysis
// outputs from it — per-event packet counts where they are
// deterministic (floods, research sweeps), tolerance-free bounds where
// build-time draws intervene (scan and misconfig sessions).
//
// Recording is opt-in (Config.RecordLedger) so the hot benchmarks and
// allocation budgets never pay for it, and it is purely observational:
// no ledger code may consume an RNG draw or reorder a fork, or the
// golden-trace corpus would shift.

import (
	"quicsand/internal/netmodel"
	"quicsand/internal/telescope"
	"quicsand/internal/wire"
)

// Build-time packet bounds the ledger's consumers rely on. They mirror
// the clamps in events.go (botSpec.build, misconfigSpec.build): the
// per-visit packet count is drawn while the stream runs, but it can
// never leave these ranges, so schedule-time visit counts convert to
// tolerance-free packet bounds.
const (
	// BotMinPacketsPerVisit / BotMaxPacketsPerVisit bound one scan
	// visit's packets (1 + Exp draw, clamped).
	BotMinPacketsPerVisit = 1
	BotMaxPacketsPerVisit = 120
	// MisconfMinPacketsPerVisit / MisconfMaxPacketsPerVisit bound one
	// misconfigured-responder visit (5 + Intn(13)).
	MisconfMinPacketsPerVisit = 5
	MisconfMaxPacketsPerVisit = 17
)

// LedgerResearch is one scheduled full-IPv4 research sweep.
type LedgerResearch struct {
	Label    string
	Host     netmodel.Addr
	StartSec float64
	DurSec   float64
	Records  uint64 // thinned records the sweep emits (exact)
	Weight   uint32 // packets each record represents
}

// LedgerBot is one scheduled scanning bot. Visits is drawn at schedule
// time and exact; per-visit packets are build-time draws bounded by
// Bot{Min,Max}PacketsPerVisit.
type LedgerBot struct {
	Label   string
	Src     netmodel.Addr
	Version wire.Version
	Visits  int
	Payload bool // visits carry real ClientHello payloads
}

// LedgerFlood is one scheduled flood event with every knob that
// determines its telescope footprint. Packets is the exact number of
// telescope packets the event materializes (FloodPackets).
type LedgerFlood struct {
	Label          string
	Vector         int // VectorQUIC, VectorTCP or VectorICMP (resolved)
	Victim         netmodel.Addr
	Org            string
	Version        wire.Version // QUIC events only
	StartSec       float64
	DurSec         float64
	PeakPkts       int
	BasePkts       int
	Shape          uint8
	Amp            int // response datagrams per arrival (>= 1)
	RetryMitigated bool
	NAddrs         int // spoofed client addresses
	NPorts         int // spoofed client ports
	Packets        uint64
}

// Arrivals returns the spoofed-packet arrival count of the event;
// Packets = Arrivals × Amp.
func (f *LedgerFlood) Arrivals() uint64 { return f.Packets / uint64(maxInt(f.Amp, 1)) }

// First and Last return the exact timestamps of the event's bracket
// packets — the victim answers from the first to the last spoofed
// packet, so they bound every packet of the event.
func (f *LedgerFlood) First() telescope.Timestamp { return tsAt(f.StartSec) }
func (f *LedgerFlood) Last() telescope.Timestamp  { return tsAt(f.StartSec + f.DurSec) }

// LedgerMisconfig is one scheduled misconfigured responder.
type LedgerMisconfig struct {
	Label    string
	Src      netmodel.Addr
	Version  wire.Version
	Visits   int
	StartSec float64 // resolved visit-window start
}

// Ledger accumulates everything one generator scheduled, in schedule
// order within each kind.
type Ledger struct {
	Research  []LedgerResearch
	Bots      []LedgerBot
	Floods    []LedgerFlood
	Misconfig []LedgerMisconfig
}

// FloodPackets returns the exact number of telescope packets one flood
// event emits. It is the schedule-time twin of the flood's stream: two
// bracket packets pin the attack extent, the shape draws peak+base
// arrival times (shapeBurst expands the peak over a window of up to
// two minutes), and every arrival elicits amp response datagrams. Only
// arrival *times* are drawn at activation — the count is fully
// determined here, which is what makes flood volumes an exact oracle
// counter (TestFloodPacketsMatchesBuild pins the two against each
// other).
func FloodPackets(peakPkts, basePkts int, durSec float64, shape uint8, amp int) uint64 {
	if amp < 1 {
		amp = 1
	}
	arrivals := 2 + peakPkts + basePkts
	if shape == shapeBurst {
		window := 120.0
		if durSec < window {
			window = durSec
		}
		arrivals = 2 + int(float64(peakPkts)*window/60) + basePkts
	}
	return uint64(arrivals) * uint64(amp)
}

// TSAt converts a month offset in seconds to the telescope timestamp
// the event sources would stamp — shared so ledger consumers compute
// bracket-packet times with bit-identical float arithmetic.
func TSAt(offsetSec float64) telescope.Timestamp { return tsAt(offsetSec) }

// recordResearch notes one scheduled sweep.
func (g *Generator) recordResearch(label string, r *researchScan, durSec float64) {
	if g.Ledger == nil {
		return
	}
	g.Ledger.Research = append(g.Ledger.Research, LedgerResearch{
		Label:    label,
		Host:     r.src,
		StartSec: float64(r.start-telescope.TS(telescope.MeasurementStart)) / 1000,
		DurSec:   durSec,
		Records:  r.emit,
		Weight:   r.weight,
	})
}

// recordBot notes one scheduled scanning bot.
func (g *Generator) recordBot(label string, b *botSpec) {
	if g.Ledger == nil {
		return
	}
	g.Ledger.Bots = append(g.Ledger.Bots, LedgerBot{
		Label:   label,
		Src:     b.src,
		Version: b.version,
		Visits:  len(b.visits),
		Payload: b.withload,
	})
}

// recordFlood notes one scheduled flood event.
func (g *Generator) recordFlood(label string, s *floodSpec, org string) {
	if g.Ledger == nil {
		return
	}
	var version wire.Version
	if s.vector == VectorQUIC {
		version = s.version
	}
	amp := s.amp
	if amp < 1 {
		amp = 1
	}
	g.Ledger.Floods = append(g.Ledger.Floods, LedgerFlood{
		Label:          label,
		Vector:         s.vector,
		Victim:         s.victim,
		Org:            org,
		Version:        version,
		StartSec:       s.startSec,
		DurSec:         s.durSec,
		PeakPkts:       s.peakPkts,
		BasePkts:       s.basePkts,
		Shape:          s.shape,
		Amp:            amp,
		RetryMitigated: s.retryMitigated,
		NAddrs:         s.nAddrs,
		NPorts:         s.nPorts,
		Packets:        s.plannedPackets(),
	})
}

// recordMisconfig notes one scheduled misconfigured responder.
func (g *Generator) recordMisconfig(label string, m *misconfigSpec, startSec float64) {
	if g.Ledger == nil {
		return
	}
	g.Ledger.Misconfig = append(g.Ledger.Misconfig, LedgerMisconfig{
		Label:    label,
		Src:      m.src,
		Version:  m.version,
		Visits:   len(m.visits),
		StartSec: startSec,
	})
}
