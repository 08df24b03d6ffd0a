package experiment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/metrics"
)

// samplerGoldenScenarios exercise every way a container leaves a worker's
// pool while the CPU sampler watches it: crashes and Repair (chaos-day),
// container kills and checkpoint/restore (chaos-day), and live-migration
// freezes and thaws (hotspot-rebalance, rolling-drain).
var samplerGoldenScenarios = []string{"chaos-day", "hotspot-rebalance", "rolling-drain"}

// samplerGolden renders the per-job CPU and evaluation-function summaries
// of every golden scenario at seeds 1 and 2: count, mean, median, first
// and last sample, with floats in shortest round-trip form so any change
// to what the sampler observes, or when, shows up in the bytes.
func samplerGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range samplerGoldenScenarios {
		s, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for _, seed := range []int64{1, 2} {
			res, err := RunE(s.Spec(seed))
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for _, j := range res.Jobs {
				fmt.Fprintf(&buf, "%s\t%d\t%s\tcpu %s\teval %s\n", name, seed, j.Name,
					summaryLine(res.Collector.CPUSummary(j.Name)),
					summaryLine(res.Collector.EvalSummary(j.Name)))
			}
		}
	}
	return buf.Bytes()
}

func summaryLine(s *metrics.SeriesSummary) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if s.Count() == 0 {
		return "n=0"
	}
	first, _ := s.First()
	last, _ := s.Last()
	m := s.Moments()
	return fmt.Sprintf("n=%d mean=%s p50=%s first=%s@%s last=%s@%s",
		s.Count(), g(m.Mean()), g(s.Quantile(0.5)),
		g(first.V), g(first.T), g(last.V), g(last.T))
}

// The sampler's per-job observations must match the checked-in golden
// byte for byte: which containers it samples, at which instants, and for
// how long after exit. Regenerate after an intentional change with:
//
//	go test ./internal/experiment -run TestSamplerSummaryGolden -update
func TestSamplerSummaryGolden(t *testing.T) {
	got := samplerGolden(t)
	path := filepath.Join("testdata", "sampler_summaries.golden.tsv")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sampler summaries drifted from %s.\n"+
			"If the change is intentional, regenerate with -update and review the diff.\n"+
			"got %d bytes, want %d bytes", path, len(got), len(want))
	}
}
