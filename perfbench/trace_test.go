package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/experiment"
)

// report runs one registered scenario at the given lane count, optionally
// through the seam wrappers, and returns its ReportScenario text.
func report(t *testing.T, name string, shards int, traced bool) (string, *tracer) {
	t.Helper()
	scen, ok := experiment.ScenarioByName(name)
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	scen.SimShards = shards
	const seed = 3
	spec := scen.Spec(seed)
	var tr *tracer
	if traced {
		tr = instrument(&spec)
	}
	res, err := experiment.RunE(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	experiment.ReportScenario(&buf, []experiment.ScenarioOutcome{{
		Scenario: scen,
		Seeds:    []int64{seed},
		Reports:  []experiment.RunReport{{Name: res.Name, Result: res}},
	}})
	return buf.String() + digest(scen, seed, res), tr
}

// The wrappers must be pure observers: a wrapped run's report is
// byte-identical to an unwrapped one, on the serial engine and with two
// lanes calling the wrappers in parallel.
func TestWrappersArePureObservers(t *testing.T) {
	for _, name := range []string{"chaos-day", "production-day"} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				plain, _ := report(t, name, shards, false)
				wrapped, tr := report(t, name, shards, true)
				if plain != wrapped {
					t.Fatalf("wrapped run differs:\n--- plain\n%s\n--- wrapped\n%s", plain, wrapped)
				}
				s := tr.totals()
				for _, k := range []spanKind{kindNext, kindPlace, kindTick, kindListener, kindStats, kindSetLimit, kindRecordRun} {
					if s.calls[k] == 0 {
						t.Errorf("no %s spans recorded", kindNames[k])
					}
				}
				for _, r := range append(tr.workers, tr.cluster) {
					if len(r.open) != 0 {
						t.Errorf("%d spans left open", len(r.open))
					}
				}
			})
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{}
	r.spans = []span{
		{start: 0, end: 100, parent: -1, kind: kindTick},
		{start: 10, end: 30, parent: 0, kind: kindStats},
		{start: 40, end: 90, parent: 0, kind: kindRecordRun},
		{start: 200, end: 210, parent: -1, kind: kindListener},
	}
	tr := &tracer{cluster: &recorder{}, workers: []*recorder{r}}
	s := tr.totals()
	if got, want := s.self[kindTick], 30e-9; !near(got, want) {
		t.Errorf("tick self = %g, want %g", got, want)
	}
	if got, want := s.total[kindTick], 100e-9; !near(got, want) {
		t.Errorf("tick total = %g, want %g", got, want)
	}
	if got, want := s.self[kindRecordRun], 50e-9; !near(got, want) {
		t.Errorf("record_run self = %g, want %g", got, want)
	}
	if s.calls[kindListener] != 1 || s.calls[kindStats] != 1 {
		t.Errorf("calls = %v", s.calls)
	}
}

func near(a, b float64) bool { return a-b < 1e-15 && b-a < 1e-15 }

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfileAttributesFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if through("repro/perfbench.spin")(s.frames) {
			found = true
			if s.ns <= 0 {
				t.Errorf("sample with %d ns", s.ns)
			}
			if m := selfModule(s.frames); m != "bench" {
				t.Errorf("spin sample charged to %q, want bench", m)
			}
		}
	}
	if !found {
		t.Fatalf("no sample of spin among %d samples", len(samples))
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/metrics.(*Collector).AttachWorker.func1.1": "metrics",
		"repro/internal/simdocker.(*Container).ID":                 "simdocker",
		"main.(*recorder).begin":                                   "bench",
		"runtime.mapaccess1_faststr":                               "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	walk := []string{
		"repro/internal/simdocker.(*Container).ID",
		"repro/internal/metrics.(*Collector).AttachWorker.func1.1",
		"repro/internal/simdocker.(*Daemon).EachContainer",
		"repro/internal/metrics.(*Collector).AttachWorker.func1",
	}
	if !containerWalk(walk) {
		t.Error("container accessor under EachContainer not counted as walk")
	}
	record := append([]string{"runtime.mapaccess2", "repro/internal/metrics.(*SeriesSummary).Observe"}, walk[1:]...)
	if containerWalk(record) {
		t.Error("sample recording counted as walk")
	}
	if got := selfModule([]string{"runtime.gcBgMarkWorker"}); got != "other" {
		t.Errorf("runtime-only stack charged to %q", got)
	}
}
