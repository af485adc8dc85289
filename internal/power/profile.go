package power

import (
	"repro/internal/scan"
	"repro/internal/sim"
)

// ToggleProfile runs the scan workload and returns, per net, the total
// switched capacitance it contributed (load × toggle count, fF) across
// all shift cycles — the ranking signal peak-power test-point insertion
// uses to decide where forcing a constant buys the most.
func ToggleProfile(ch *scan.Chains, patterns []scan.Pattern, cfg scan.ShiftConfig,
	cm CapModel) ([]float64, error) {

	c := ch.Circuit()
	es := sim.NewEvent(c)
	scratch := sim.New(c)
	loads := cm.NetLoads(c)
	profile := make([]float64, c.NumNets())
	hooks := scan.Hooks{
		ShiftCycle: func(pi, ppi []bool) {
			for _, n := range es.Apply(pi, ppi) {
				profile[n] += loads[n]
			}
		},
		Capture: func(pi, ppi []bool) []bool {
			vals := scratch.Eval(pi, ppi)
			next := make([]bool, c.NumFFs())
			for i, ff := range c.FFs {
				next[i] = vals[ff.D]
			}
			return next
		},
	}
	if err := ch.Run(patterns, cfg, hooks); err != nil {
		return nil, err
	}
	return profile, nil
}
