// Package power measures the dynamic and static power dissipated in the
// combinational part of a full-scan circuit during scan-mode test
// application — the two quantities compared across structures in the
// paper's Table I.
//
// Dynamic power follows Eq. (1): each toggling net contributes its load
// capacitance; the per-cycle average of Σ C·V²/2 is reported in µW/Hz
// ("the values in the dynamic columns must be multiplied by the working
// frequency to give the actual dynamic power"). Static power is the mean
// over shift cycles of V_DD·Σ I_leak(gate state), in µW.
package power

import (
	"context"
	"fmt"

	"repro/internal/leakage"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// CapModel gives load capacitances in femtofarads.
type CapModel struct {
	// PinCap is the input pin capacitance per gate type.
	PinCap map[logic.GateType]float64
	// PinCapPerFanin is added per input beyond 2 (wider cells use larger
	// devices).
	PinCapPerFanin float64
	// FFDCap is the pin capacitance of a flip-flop data input.
	FFDCap float64
	// POCap is the load presented by a primary output pad/boundary.
	POCap float64
	// WirePerFanout models routing capacitance per sink.
	WirePerFanout float64
	// VDD in volts.
	VDD float64
}

// DefaultCapModel returns the 45 nm-flavored capacitances used by all
// experiments.
func DefaultCapModel() CapModel {
	return CapModel{
		PinCap: map[logic.GateType]float64{
			logic.Not:  0.7,
			logic.Buf:  0.7,
			logic.Nand: 0.9,
			logic.Nor:  1.0,
			logic.And:  0.9,
			logic.Or:   1.0,
			logic.Xor:  1.6,
			logic.Xnor: 1.6,
			logic.Mux2: 1.1,
		},
		PinCapPerFanin: 0.15,
		FFDCap:         1.2,
		POCap:          2.0,
		WirePerFanout:  0.4,
		VDD:            0.9,
	}
}

// NetLoads returns the switched capacitance per net in fF for the frozen
// circuit: the sum of the input pin caps of all reading gates and flops,
// wire capacitance per sink, and pad load for primary outputs.
func (cm CapModel) NetLoads(c *netlist.Circuit) []float64 {
	loads := make([]float64, c.NumNets())
	for ni := range c.Nets {
		n := &c.Nets[ni]
		cap := 0.0
		for _, gi := range n.Fanout {
			g := &c.Gates[gi]
			pin := cm.PinCap[g.Type]
			if extra := len(g.Inputs) - 2; extra > 0 {
				pin += float64(extra) * cm.PinCapPerFanin
			}
			cap += pin + cm.WirePerFanout
		}
		cap += float64(len(n.FanoutFF)) * (cm.FFDCap + cm.WirePerFanout)
		if n.IsPO() {
			cap += cm.POCap
		}
		loads[ni] = cap
	}
	return loads
}

// Report is the scan-mode power measurement of one structure.
type Report struct {
	// DynamicPerHz is the average switched energy per scan clock in
	// µW/Hz (multiply by the shift frequency for watts).
	DynamicPerHz float64
	// PeakDynamicPerHz is the worst single cycle's switched energy in
	// µW/Hz — the peak-power figure test schedules must respect.
	PeakDynamicPerHz float64
	// StaticUW is the average leakage power over scan-mode cycles in µW.
	StaticUW float64
	// Cycles is the number of simulated scan-mode clock cycles.
	Cycles int
	// MeanTogglesPerCycle is the average number of switching nets per
	// cycle (an implementation-independent activity figure).
	MeanTogglesPerCycle float64
	// MeanLeakNA is the average total leakage current in nA.
	MeanLeakNA float64
}

// String summarizes the report.
func (r Report) String() string {
	return fmt.Sprintf("dynamic %.3e µW/Hz, static %.2f µW over %d cycles",
		r.DynamicPerHz, r.StaticUW, r.Cycles)
}

// MeasureOptions tunes the accounting of MeasureScan.
type MeasureOptions struct {
	// IncludeCapture also accumulates the capture-cycle state into the
	// transition and leakage sums. Table I's convention (and the default)
	// is scan/shift power only: the capture excursion to the test's own
	// input values is test-application power common to every structure.
	// Captures still update the chain contents either way, and the
	// boundary transition from the last shift state of one pattern to the
	// first of the next is always counted once.
	IncludeCapture bool
	// Ctx, when non-nil, is checked between patterns; a done context
	// aborts the measurement with its error. MeasureScanPackedOpts reports
	// each pattern and packed batch to the probe scope Ctx carries.
	Ctx context.Context `json:"-"`
}

// stopHook converts the optional context into a scan.Hooks Stop check.
func (o MeasureOptions) stopHook() func() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err
}

// MeasureScan applies the pattern set through the chain under cfg and
// accumulates dynamic and static power of the combinational part across
// the scan shift cycles (the paper's Table I convention; see
// MeasureOptions to include capture cycles).
func MeasureScan(ch scan.Runner, patterns []scan.Pattern, cfg scan.ShiftConfig,
	lm *leakage.Model, cm CapModel) (Report, error) {
	return MeasureScanOpts(ch, patterns, cfg, lm, cm, MeasureOptions{})
}

// MeasureScanOpts is MeasureScan with explicit accounting options. It
// accepts any scan.Runner (single chain or multi-chain).
func MeasureScanOpts(ch scan.Runner, patterns []scan.Pattern, cfg scan.ShiftConfig,
	lm *leakage.Model, cm CapModel, opts MeasureOptions) (Report, error) {

	c := ch.Circuit()
	s := sim.New(c)
	loads := cm.NetLoads(c)
	tc := sim.NewToggleCounter(loads)
	leakTabs := lm.CircuitTables(c)
	leakSum := 0.0
	leakCycles := 0
	stateCopy := make([]bool, c.NumNets())

	peak := 0.0
	observe := func(pi, ppi []bool) []bool {
		st := s.Eval(pi, ppi)
		copy(stateCopy, st)
		if d := tc.Observe(stateCopy); d > peak {
			peak = d
		}
		leakSum += lm.CircuitLeakBoolTabs(c, stateCopy, leakTabs)
		leakCycles++
		return st
	}

	hooks := scan.Hooks{
		ShiftCycle: func(pi, ppi []bool) { observe(pi, ppi) },
		Capture: func(pi, ppi []bool) []bool {
			var st []bool
			if opts.IncludeCapture {
				st = observe(pi, ppi)
			} else {
				st = s.Eval(pi, ppi)
			}
			next := make([]bool, c.NumFFs())
			for i, ff := range c.FFs {
				next[i] = st[ff.D]
			}
			return next
		},
		Stop: opts.stopHook(),
	}
	if err := ch.Run(patterns, cfg, hooks); err != nil {
		return Report{}, err
	}

	var r Report
	r.Cycles = tc.Cycles()
	if r.Cycles > 0 {
		// fF·V² per cycle → J: 1e-15; per-cycle J → µW/Hz: 1e6.
		toUWHz := cm.VDD * cm.VDD / 2 * 1e-9
		r.DynamicPerHz = tc.MeanWeightedPerCycle() * toUWHz
		r.PeakDynamicPerHz = peak * toUWHz
		r.MeanTogglesPerCycle = float64(tc.RawTotal()) / float64(r.Cycles)
	}
	if leakCycles > 0 {
		r.MeanLeakNA = leakSum / float64(leakCycles)
		r.StaticUW = lm.PowerUW(r.MeanLeakNA)
	}
	return r, nil
}

// Improvement returns the percentage reduction from base to improved
// (positive = improved is lower), the convention of Table I.
func Improvement(base, improved float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - improved) / base * 100
}
