package scanpower

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// hookCensus tallies everything one circuit's Engine run reports through
// Hooks: how often each field fires, the lanes and samples the batch
// events carry, the sub-stage sequence of each stage, and the PODEM and
// justification outcomes.
type hookCensus struct {
	Calls    map[string]int
	Lanes    map[string]int
	Subs     map[string]string
	Outcomes map[string]int
}

// censusHooks returns Hooks feeding one census per circuit.
func censusHooks(mu *sync.Mutex, byCircuit map[string]*hookCensus) Hooks {
	get := func(circuit string) *hookCensus {
		hc := byCircuit[circuit]
		if hc == nil {
			hc = &hookCensus{
				Calls:    map[string]int{},
				Lanes:    map[string]int{},
				Subs:     map[string]string{},
				Outcomes: map[string]int{},
			}
			byCircuit[circuit] = hc
		}
		return hc
	}
	tally := func(circuit, field string, f func(hc *hookCensus)) {
		mu.Lock()
		defer mu.Unlock()
		hc := get(circuit)
		hc.Calls[field]++
		if f != nil {
			f(hc)
		}
	}
	return Hooks{
		OnStageStart: func(circuit, stage string) { tally(circuit, "OnStageStart", nil) },
		OnStageDone: func(circuit, stage string, _ time.Duration, info StageInfo) {
			tally(circuit, "OnStageDone", func(hc *hookCensus) {
				hc.Lanes["patterns."+stage] += info.Patterns
				if info.Failed || info.CacheHit {
					hc.Outcomes["stage.abnormal"]++
				}
			})
		},
		OnProgress: func(circuit string, _, _ int) { tally(circuit, "OnProgress", nil) },
		OnSubStage: func(circuit, stage, sub string, _ time.Duration, _ StageInfo) {
			tally(circuit, "OnSubStage", func(hc *hookCensus) { hc.Subs[stage] += sub + " " })
		},
		OnPodemFault: func(circuit string, info PodemFaultInfo) {
			tally(circuit, "OnPodemFault", func(hc *hookCensus) { hc.Outcomes["podem."+info.Outcome]++ })
		},
		OnJustify: func(circuit string, info JustifyInfo) {
			tally(circuit, "OnJustify", func(hc *hookCensus) {
				if info.Success {
					hc.Outcomes["justify.success"]++
				} else {
					hc.Outcomes["justify.fail"]++
				}
			})
		},
		OnObsSamples: func(circuit string, n int) {
			tally(circuit, "OnObsSamples", func(hc *hookCensus) { hc.Lanes["obs.samples"] += n })
		},
		OnPattern: func(circuit, stage string, index int) {
			tally(circuit, "OnPattern", func(hc *hookCensus) { hc.Lanes["pattern.index."+stage] += index })
		},
		OnMeasureBatch: func(circuit, stage string, lanes int, _ time.Duration) {
			tally(circuit, "OnMeasureBatch", func(hc *hookCensus) { hc.Lanes["measure."+stage] += lanes })
		},
		OnMCBatch: func(circuit, stage, kind string, lanes int, _ time.Duration) {
			tally(circuit, "OnMCBatch", func(hc *hookCensus) { hc.Lanes["mc."+stage+"."+kind] += lanes })
		},
		OnFaultSimBatch: func(circuit, kind string, lanes int, _ time.Duration) {
			tally(circuit, "OnFaultSimBatch", func(hc *hookCensus) { hc.Lanes["faultsim."+kind] += lanes })
		},
		OnPodemChunk: func(circuit string, _, n int, _ time.Duration) {
			tally(circuit, "OnPodemChunk", func(hc *hookCensus) { hc.Lanes["podem.chunk"] += n })
		},
	}
}

// TestStageHooksEventCensus pins the complete event stream an Engine run
// reports through Hooks on two Table I circuits: the identity oracle for
// any change to how events travel from the kernels to the callbacks.
func TestStageHooksEventCensus(t *testing.T) {
	want := map[string]*hookCensus{
		"s344": {
			Calls: map[string]int{"OnFaultSimBatch": 2, "OnJustify": 28, "OnMCBatch": 2, "OnMeasureBatch": 6,
				"OnObsSamples": 1, "OnPattern": 78, "OnPodemFault": 23, "OnProgress": 1, "OnStageDone": 4,
				"OnStageStart": 4, "OnSubStage": 9},
			Lanes: map[string]int{"faultsim.compact": 42, "faultsim.drop": 2, "mc.proposed.fill": 256,
				"mc.proposed.obs": 256, "measure.input-control": 405, "measure.proposed": 405,
				"measure.traditional": 405, "obs.samples": 256, "patterns.atpg": 26,
				"patterns.input-control": 26, "patterns.proposed": 26, "patterns.traditional": 26,
				"pattern.index.traditional": 325, "pattern.index.input-control": 325,
				"pattern.index.proposed": 325},
			Subs: map[string]string{"atpg": "random podem compact ", "input-control": "blocking fill ",
				"proposed": "observability blocking fill reorder "},
			Outcomes: map[string]int{"justify.fail": 5, "justify.success": 23, "podem.detected": 2,
				"podem.untestable": 21},
		},
		"s1423": {
			Calls: map[string]int{"OnFaultSimBatch": 3, "OnJustify": 58, "OnMCBatch": 2, "OnMeasureBatch": 54,
				"OnObsSamples": 1, "OnPattern": 183, "OnPodemFault": 294, "OnProgress": 1, "OnStageDone": 4,
				"OnStageStart": 4, "OnSubStage": 9},
			Lanes: map[string]int{"faultsim.compact": 104, "faultsim.drop": 78, "mc.proposed.fill": 256,
				"mc.proposed.obs": 256, "measure.input-control": 4588, "measure.proposed": 4588,
				"measure.traditional": 4588, "obs.samples": 256, "patterns.atpg": 61,
				"patterns.input-control": 61, "patterns.proposed": 61, "patterns.traditional": 61,
				"pattern.index.traditional": 1830, "pattern.index.input-control": 1830,
				"pattern.index.proposed": 1830},
			Subs: map[string]string{"atpg": "random podem compact ", "input-control": "blocking fill ",
				"proposed": "observability blocking fill reorder "},
			Outcomes: map[string]int{"justify.fail": 24, "justify.success": 34, "podem.aborted": 152,
				"podem.detected": 78, "podem.untestable": 64},
		},
	}
	var mu sync.Mutex
	got := map[string]*hookCensus{}
	eng := NewEngine(DefaultConfig())
	eng.Workers = 1
	eng.Hooks = censusHooks(&mu, got)
	if _, err := eng.RunAll(context.Background(), []string{"s344", "s1423"}); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		g := got[name]
		if g == nil {
			t.Errorf("%s: no events", name)
			continue
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s census:\n got %s\nwant %s", name, fmt.Sprintf("%#v", *g), fmt.Sprintf("%#v", *w))
		}
	}
}
