// Package core implements the paper's contribution: the low-power scan
// structure that multiplexes non-critical scan-cell outputs to constants
// during shifting, and the algorithm that picks the constant vector so
// that (a) the transitions still entering from non-multiplexed scan cells
// are suppressed as close to their origin as possible and (b) the
// quiescent state leaks as little as possible.
//
// The three public stages mirror the paper:
//
//	AddMUX                    – timing-driven selection of multiplexable
//	                            pseudo-inputs (Section 4, step 1)
//	FindControlledInputPattern – transition blocking directed by leakage
//	                            observability, PODEM-like justification,
//	                            minimum-leakage don't-care fill
//	                            (Section 4, step 2)
//	ReorderInputs             – leakage-driven permutation of symmetric
//	                            gate inputs under the scan-mode state
//
// Build runs all stages and also provides the Huang–Lee input-control
// baseline (blocking through primary inputs only, no MUXes) used as the
// second comparison column of Table I.
package core

import (
	"repro/internal/leakage"
	"repro/internal/power"
	"repro/internal/timing"
)

// Options configures Build.
type Options struct {
	// UseMux enables the proposed MUX insertion; when false the flow
	// degrades to the input-control baseline (PIs are the only controlled
	// inputs).
	UseMux bool
	// ObsDirected steers every free choice with leakage observability
	// (the paper's directive); when false the first feasible candidate is
	// taken (the behaviour of the plain C-algorithm of the baseline).
	ObsDirected bool
	// ObsSamples sizes the Monte-Carlo observability estimate.
	ObsSamples int
	// FillTrials is the number of random minimum-leakage fills tried for
	// leftover don't-care controlled inputs ([14]'s random search).
	FillTrials int
	// JustifyBacktracks bounds each justification search.
	JustifyBacktracks int
	// ReorderInputs enables the final gate input reordering stage.
	ReorderInputs bool
	// MuxMask, when non-nil, overrides AddMUX's timing-driven selection
	// with an explicit per-flop choice (used by ablation studies; flops
	// the timing analysis rejects should not be forced without accepting
	// the delay penalty).
	MuxMask []bool
	// Seed makes the randomized pieces reproducible.
	Seed int64

	Delay timing.DelayModel
	Leak  *leakage.Model
	Cap   power.CapModel
}

// ProposedOptions returns the full proposed flow of the paper.
func ProposedOptions() Options {
	return Options{
		UseMux:            true,
		ObsDirected:       true,
		ObsSamples:        256,
		FillTrials:        256,
		JustifyBacktracks: 50,
		ReorderInputs:     true,
		Seed:              1,
		Delay:             timing.Default(),
		Leak:              leakage.Default(),
		Cap:               power.DefaultCapModel(),
	}
}

// InputControlOptions returns the Huang–Lee baseline configuration:
// transition blocking through primary inputs only, no observability
// directive, no MUXes, no reordering.
func InputControlOptions() Options {
	o := ProposedOptions()
	o.UseMux = false
	o.ObsDirected = false
	o.ReorderInputs = false
	return o
}

// Stats reports what the flow did.
type Stats struct {
	// MuxCount is the number of pseudo-inputs that received a MUX.
	MuxCount int
	// CriticalDelay is the pre-modification critical path delay (ps); by
	// construction it is unchanged afterwards.
	CriticalDelay float64
	// BlockedGates counts transition gates successfully blocked by a
	// justified controlling value; FailedGates counts those whose
	// transitions pass on.
	BlockedGates int
	FailedGates  int
	// TransitionNets is the number of nets still carrying transitions in
	// scan mode (the residue the structure could not suppress).
	TransitionNets int
	// AssignedInputs / FilledInputs split the controlled inputs between
	// justification-assigned and leakage-filled don't-cares.
	AssignedInputs int
	FilledInputs   int
	// ReorderedGates counts gates whose input order changed.
	ReorderedGates int
	// ScanLeakNA is the expected combinational leakage in scan mode under
	// the final vector (free pseudo-inputs X-averaged), in nA.
	ScanLeakNA float64
}
