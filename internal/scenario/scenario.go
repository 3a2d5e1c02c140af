// Package scenario is the pipeline's declarative workload layer: a
// Scenario is a named, ordered list of traffic phases (ibr.Phase) —
// research sweeps, scanning-bot waves, QUIC/TCP/ICMP flood events with
// per-phase knobs, low-volume responder noise — that compiles into the
// scheduled sources the sharded engine streams (internal/ibr), so
// quicsand.Run, Replay and the capture subsystem work unchanged over
// any scenario.
//
// Scenarios are plain Go values, loadable from small JSON specs
// (Load), with a registry of built-ins (Builtin) — Go constructors —
// that includes the paper's April 2021 month. internal/ibr validates
// and schedules each phase itself (ibr.Phase.Validate,
// Generator.AddPhase), resolving every knob at setup time into the same
// event builders the paper schedule uses, so the per-packet hot path
// stays allocation-free and a run is bit-reproducible per (seed,
// scenario) for any worker count (DESIGN.md §11).
package scenario

import (
	"cmp"
	"fmt"

	"quicsand/internal/ibr"
)

// Scenario is one declarative workload: a named, ordered list of
// traffic phases over the measurement month.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Paper selects the hard-coded paper-2021 schedule (ibr.New)
	// instead of phase compilation; Phases must be empty.
	Paper  bool        `json:"paper,omitempty"`
	Phases []ibr.Phase `json:"phases,omitempty"`
}

// Validate checks the scenario for structural soundness: a name, and
// either the paper month or phases that each pass ibr.Phase.Validate.
// Load and Compile call it.
func (s *Scenario) Validate() error {
	if s == nil {
		return fmt.Errorf("scenario: nil scenario")
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Paper {
		if len(s.Phases) > 0 {
			return fmt.Errorf("scenario %q: paper = true cannot carry phases", s.Name)
		}
		return nil
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %q: no phases", s.Name)
	}
	for i := range s.Phases {
		if err := s.Phases[i].Validate(); err != nil {
			return fmt.Errorf("scenario: phase %d: %w", i, err)
		}
	}
	return nil
}

// Compile schedules the scenario onto a generator built from cfg. A nil
// scenario and paper-2021 map to the hard-coded paper month (ibr.New);
// everything else schedules phase by phase, in spec order, onto an
// empty generator, phase i under the label "<i>/<label or kind>".
func Compile(sc *Scenario, cfg ibr.Config) (*ibr.Generator, error) {
	if sc == nil {
		return ibr.New(cfg)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Paper {
		return ibr.New(cfg)
	}
	g, err := ibr.NewEmpty(cfg)
	if err != nil {
		return nil, err
	}
	for i := range sc.Phases {
		ph := &sc.Phases[i]
		name := cmp.Or(ph.Label, ph.Kind)
		if err := g.AddPhase(fmt.Sprintf("%d/%s", i, name), ph); err != nil {
			return nil, fmt.Errorf("scenario %q: phase %d (%s): %w", sc.Name, i, name, err)
		}
	}
	return g, nil
}
