package main

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/workload"
)

// A workload is one benchmark input: a scenario whose Spec the benchmark
// expands for a seed. The program under test only ever receives the
// generated arrival stream inside that Spec.
type benchWorkload struct {
	name string
	// shards is the Spec.SimShards the workload runs at (1 = serial).
	shards   int
	scenario func() (experiment.Scenario, error)
}

var workloads = []benchWorkload{
	{name: "chaos-megacluster", shards: 2, scenario: registered("chaos-megacluster")},
	{name: "long-day", shards: 1, scenario: longDay},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

func registered(name string) func() (experiment.Scenario, error) {
	return func() (experiment.Scenario, error) {
		s, ok := experiment.ScenarioByName(name)
		if !ok {
			return experiment.Scenario{}, fmt.Errorf("scenario %q is not registered", name)
		}
		return s, nil
	}
}

// longDay is the production-day family's shape (amplitude 0.6, a morning
// surge at 0.18 and a retry storm at 0.55 of the window, production tenant
// mix) stretched to an 18,000 s window on 150 four-core workers: the same
// per-job work as a short day but about 500 containers hosted per worker,
// so per-worker history, not job count, sets the cost.
func longDay() (experiment.Scenario, error) {
	const base, window = 4.2, 18000.0
	proc := workload.ProductionDay{
		BaseRate:  base,
		Amplitude: 0.6,
		WindowSec: window,
		Spikes: []workload.Spike{
			{At: 0.18 * window, Sec: 0.012 * window, Rate: 0.45 * base},
			{At: 0.55 * window, Sec: 0.008 * window, Rate: 0.9 * base},
		},
	}
	gen := workload.Generator{Process: proc, Mix: workload.ProductionTenantMix()}
	return experiment.Scenario{
		Name:                   "long-day",
		Description:            "long production day on 150 4-core workers: " + proc.Describe(),
		StreamWorkload:         gen.Stream,
		Workers:                150,
		Capacity:               4,
		MaxContainersPerWorker: 8,
		ContentionOverhead:     -1,
		SamplePeriod:           15,
		Horizon:                30000,
	}, nil
}

// spec expands the workload for a seed at its lane count.
func (w benchWorkload) spec(seed int64) (experiment.Scenario, experiment.Spec, error) {
	s, err := w.scenario()
	if err != nil {
		return s, experiment.Spec{}, err
	}
	s.SimShards = w.shards
	spec := s.Spec(seed)
	if spec.Arrivals == nil {
		return s, spec, fmt.Errorf("workload %q has no arrival stream", w.name)
	}
	return s, spec, nil
}
