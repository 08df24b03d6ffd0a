// Command perfbench runs one benchmark workload once and prints its
// measurements as one JSON object. perfbench/run.py builds it, calls it
// once per repetition so that each run's peak RSS is its own, checks the
// outputs and reports medians.
//
//	perfbench -workload long-day -seed 1                 # timed run
//	perfbench -workload long-day -seed 1 -rtstats        # timed run + Go runtime metrics
//	perfbench -workload long-day -seed 1 -trace -spans out.tsv
//
// A timed run has every wrapper and profiler off except a first-pull
// timestamp on the arrival stream, which marks the end of set-up. A traced
// run wraps each layer seam, takes a CPU profile and prints the per-layer
// metrics; its simulated outputs (the digest) must equal the timed run's.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// result is what one invocation prints.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	WallS      float64 `json:"wall_s"`
	// SetupS is the run's own set-up: RunE call to first arrival pull.
	SetupS float64 `json:"setup_s"`
	// SetupProbesS are set-up-only repeats of the same Spec (see probeSetup).
	SetupProbesS []float64 `json:"setup_probes_s"`
	CPUS         float64   `json:"cpu_s"`
	MaxRSSKiB    int64     `json:"max_rss_kib"`
	Submitted    int       `json:"submitted"`
	Finished     int       `json:"finished"`
	Abandoned    int       `json:"abandoned"`
	MakespanS    float64   `json:"makespan_s"`
	JCTMeanS     float64   `json:"jct_mean_s"`
	JCTP50S      float64   `json:"jct_p50_s"`
	JCTP99S      float64   `json:"jct_p99_s"`
	Availability float64   `json:"availability"`
	// WastedWorkSec is the availability ledger's lost work, exact.
	WastedWorkSec float64 `json:"wasted_work_sec"`
	// Digest hashes every simulated output: ReportScenario text, each job
	// record, the availability ledger and the run counters.
	Digest string             `json:"digest"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	traced := flag.Bool("trace", false, "wrap the layer seams, profile, and print per-layer metrics")
	spans := flag.String("spans", "", "traced run: write the spans to this file")
	cpuprofile := flag.String("cpuprofile", "", "traced run: write the CPU profile to this file")
	rtstats := flag.Bool("rtstats", false, "timed run: also record Go runtime metrics")
	probes := flag.Int("probes", 10, "set-up-only repeats after the run")
	flag.Parse()
	if err := run(*name, *seed, *traced, *spans, *cpuprofile, *rtstats, *probes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, traced bool, spansPath, profilePath string, rtstats bool, probes int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	scen, spec, err := w.spec(seed)
	if err != nil {
		return err
	}
	out := result{Workload: name, Seed: seed, GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}

	first := &firstPull{inner: spec.Arrivals}
	spec.Arrivals = first
	var tr *tracer
	var prof bytes.Buffer
	if traced {
		tr = instrument(&spec)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	var rt *runtimeStats
	if rtstats {
		rt = startRuntimeStats()
	}
	before := usage()
	start := time.Now()
	res, runErr := experiment.RunE(spec)
	wall := time.Since(start)
	after := usage()
	if traced {
		pprof.StopCPUProfile()
	}
	if rt != nil {
		rt.stop()
	}
	if runErr != nil {
		return runErr
	}
	if first.at.IsZero() {
		return errors.New("arrival stream was never pulled")
	}
	out.WallS = wall.Seconds()
	out.SetupS = first.at.Sub(start).Seconds()
	out.CPUS = after.cpu - before.cpu
	out.MaxRSSKiB = after.maxRSS

	if err := checkOutputs(res, first.arrivals); err != nil {
		return err
	}
	fillOutcome(&out, res)
	out.Digest = digest(scen, seed, res)

	if traced {
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return err
		}
		out.Layers = layerMetrics(res, tr, samples, spec.Workers)
		if spansPath != "" {
			if err := tr.writeSpans(spansPath); err != nil {
				return err
			}
		}
		if profilePath != "" {
			if err := os.WriteFile(profilePath, prof.Bytes(), 0o644); err != nil {
				return err
			}
		}
	}
	if rt != nil {
		out.Layers = rt.metrics(res.Submitted)
	}
	// Drop the run's state so the set-up probes start from a small heap.
	res, tr = nil, nil

	for range probes {
		s, err := probeSetup(w, seed)
		if err != nil {
			return err
		}
		out.SetupProbesS = append(out.SetupProbesS, s)
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(out)
}

// firstPull stamps the first arrival pull, which ends the run's set-up,
// and counts the arrivals the stream handed to the program.
type firstPull struct {
	inner    workload.ArrivalStream
	at       time.Time
	arrivals int
}

func (f *firstPull) Next() (workload.Submission, bool) {
	if f.at.IsZero() {
		f.at = time.Now()
	}
	sub, ok := f.inner.Next()
	if ok {
		f.arrivals++
	}
	return sub, ok
}

func (f *firstPull) Err() error { return f.inner.Err() }

// probeSetup times one set-up of the workload's Spec: RunE builds the
// workers, daemons, controllers, samplers, manager and fault injector,
// then pulls the first arrival from a stream that has none and returns.
func probeSetup(w benchWorkload, seed int64) (float64, error) {
	_, spec, err := w.spec(seed)
	if err != nil {
		return 0, err
	}
	empty := &firstPull{inner: workload.SliceStream(nil)}
	spec.Arrivals = empty
	runtime.GC()
	start := time.Now()
	_, err = experiment.RunE(spec)
	if err == nil || empty.at.IsZero() {
		return 0, fmt.Errorf("set-up probe of %q did not stop at the first pull (err=%v)", w.name, err)
	}
	return empty.at.Sub(start).Seconds(), nil
}

// checkOutputs fails the run unless it completed and accounted for every
// job exactly once: each submitted job has one record and is either
// finished or counted abandoned.
func checkOutputs(res *experiment.Result, pulled int) error {
	if !res.Completed {
		return fmt.Errorf("run %q did not complete", res.Name)
	}
	if res.Submitted != pulled {
		return fmt.Errorf("manager saw %d submissions, stream yielded %d", res.Submitted, pulled)
	}
	if len(res.Jobs) != res.Submitted {
		return fmt.Errorf("%d job records for %d submitted jobs", len(res.Jobs), res.Submitted)
	}
	seen := make(map[string]bool, len(res.Jobs))
	unfinished := 0
	for _, j := range res.Jobs {
		if seen[j.Name] {
			return fmt.Errorf("job %q has two records", j.Name)
		}
		seen[j.Name] = true
		if !j.Finished {
			unfinished++
		}
	}
	if unfinished != res.Abandoned {
		return fmt.Errorf("%d jobs unfinished but %d abandoned", unfinished, res.Abandoned)
	}
	return nil
}

func fillOutcome(out *result, res *experiment.Result) {
	var cts []float64
	sum := 0.0
	for _, j := range res.Jobs {
		if j.Finished {
			cts = append(cts, j.CompletionTime())
			sum += j.CompletionTime()
		}
	}
	sort.Float64s(cts)
	out.Submitted = res.Submitted
	out.Finished = len(cts)
	out.Abandoned = res.Abandoned
	out.MakespanS = res.Makespan
	if len(cts) > 0 {
		out.JCTMeanS = sum / float64(len(cts))
		out.JCTP50S = stats.Quantile(cts, 0.50)
		out.JCTP99S = stats.Quantile(cts, 0.99)
	}
	out.Availability = 1
	if res.Availability != nil {
		out.Availability = res.Availability.Frac()
		out.WastedWorkSec = res.Availability.WastedWorkSec
	}
}

// digest hashes the run's simulated outputs. Fields the seam wrappers
// change by construction (Result.AlgorithmRuns, which the runner reads
// through a type assertion on the policy) are left out; the collector's
// own run count stands in for them.
func digest(scen experiment.Scenario, seed int64, res *experiment.Result) string {
	h := sha256.New()
	experiment.ReportScenario(h, []experiment.ScenarioOutcome{{
		Scenario: scen,
		Seeds:    []int64{seed},
		Reports:  []experiment.RunReport{{Name: res.Name, Result: res}},
	}})
	for _, j := range res.Jobs {
		fmt.Fprintf(h, "%s %s %s %s %x %x %t %d %d %d\n", j.Name, j.ContainerID, j.Worker, j.Model,
			j.StartedAt, j.FinishedAt, j.Finished, j.Restarts, j.Migrations, j.Checkpoints)
	}
	fmt.Fprintf(h, "%x %d %d %d %d %d %d\n", res.Makespan, res.Submitted, res.Requeued,
		res.Abandoned, res.Migrated, res.Collector.AlgorithmRuns(), res.Collector.MemoryBytes())
	if a := res.Availability; a != nil {
		// WastedWorkSec is hashed to 9 significant digits: the manager sums
		// the work a crash loses in map-iteration order, so its last bits
		// vary between runs of one seed. run.py reports when they do.
		fmt.Fprintf(h, "%d %d %d %d %d %d %d %.9g %d %d %d %x %x %x %x %d\n", a.Crashes, a.Repairs, a.Kills,
			a.Degradations, a.Checkpoints, a.RestartsFromCheckpoint, a.RestartsFromScratch, a.WastedWorkSec,
			a.Abandoned, a.Shed, a.Cordons, a.WorkerDownSec, a.Frac(), a.MTTRQuantile(0.5), a.MTTRQuantile(0.95),
			a.MTTRCount())
	}
	return hex.EncodeToString(h.Sum(nil))
}

type rusage struct {
	cpu    float64 // user + system seconds of the whole process
	maxRSS int64   // KiB
}

func usage() rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return rusage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRSS: ru.Maxrss}
}

// runtimeStats samples Go runtime metrics across a run; a goroutine polls
// the live heap to find its peak.
type runtimeStats struct {
	before   []metrics.Sample
	after    []metrics.Sample
	peakHeap uint64
	done     chan struct{}
	wg       sync.WaitGroup
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startRuntimeStats() *runtimeStats {
	r := &runtimeStats{before: readRuntime(), done: make(chan struct{})}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(heap)
			r.peakHeap = max(r.peakHeap, heap[0].Value.Uint64())
			select {
			case <-r.done:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

func (r *runtimeStats) stop() {
	close(r.done)
	r.wg.Wait()
	r.after = readRuntime()
}

func (r *runtimeStats) metrics(jobs int) map[string]float64 {
	delta := func(i int) float64 {
		b, a := r.before[i].Value, r.after[i].Value
		if a.Kind() == metrics.KindUint64 {
			return float64(a.Uint64() - b.Uint64())
		}
		return a.Float64() - b.Float64()
	}
	// GC's share of the CPU the process used (available minus idle).
	gcFrac := 0.0
	if used := delta(2) - delta(3); used > 0 {
		gcFrac = delta(1) / used
	}
	return map[string]float64{
		"runtime.gc_cycles":           delta(0),
		"runtime.gc_cpu_frac":         gcFrac,
		"runtime.alloc_bytes_per_job": delta(4) / float64(jobs),
		"runtime.allocs_per_job":      delta(5) / float64(jobs),
		"runtime.heap_peak_mib":       float64(r.peakHeap) / (1 << 20),
	}
}

// layerMetrics turns the traced run's spans, counters and CPU profile into
// the per-layer metrics.
func layerMetrics(res *experiment.Result, tr *tracer, samples []cpuSample, workers int) map[string]float64 {
	seams := tr.totals()
	m := map[string]float64{}

	// Profile shares: *.self_frac by the innermost-module rule (selfModule),
	// the named fracs by whether the stack passes through a function.
	var total int64
	self := map[string]int64{}
	incl := map[string]int64{}
	for _, s := range samples {
		total += s.ns
		self[selfModule(s.frames)] += s.ns
		for _, p := range inclusiveProbes {
			if p.match(s.frames) {
				incl[p.metric] += s.ns
			}
		}
	}
	frac := func(ns int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(ns) / float64(total)
	}
	for _, mod := range []string{"metrics", "stats", "simdocker", "faults", "sim", "workload"} {
		m[mod+".self_frac"] = frac(self[mod])
	}
	for _, p := range inclusiveProbes {
		m[p.metric] = frac(incl[p.metric])
	}

	jobs := float64(res.Submitted)
	m["metrics.record_run_calls"] = float64(seams.calls[kindRecordRun])
	m["metrics.record_run_s"] = seams.total[kindRecordRun]
	m["metrics.collector_bytes_per_job"] = float64(res.Collector.MemoryBytes()) / jobs

	m["simdocker.containers_per_worker"] = float64(tr.retainedContainers()) / float64(workers)
	m["simdocker.stats_calls"] = float64(seams.calls[kindStats])
	m["simdocker.stats_s"] = seams.total[kindStats]
	m["simdocker.set_limit_calls"] = float64(seams.calls[kindSetLimit])
	m["simdocker.set_limit_s"] = seams.total[kindSetLimit]

	runs, updates := 0, 0
	for _, p := range tr.policies {
		if c := controllerOf(p); c != nil {
			runs += c.Runs()
			updates += c.LimitUpdates()
		}
	}
	m["flowcon.runs"] = float64(runs)
	m["flowcon.limit_updates"] = float64(updates)
	m["flowcon.callbacks"] = float64(seams.calls[kindTick] + seams.calls[kindListener])
	m["flowcon.busy_s"] = seams.self[kindTick] + seams.self[kindListener]

	m["cluster.place_calls"] = float64(seams.calls[kindPlace])
	m["cluster.place_s"] = seams.total[kindPlace]
	// A run without faults has no ledger and a serial run no shard
	// profile; their counters then read 0.
	var ledger cluster.Availability
	if res.Availability != nil {
		ledger = *res.Availability
	}
	m["cluster.checkpoints"] = float64(ledger.Checkpoints)
	m["cluster.restores_checkpoint"] = float64(ledger.RestartsFromCheckpoint)
	m["cluster.restores_scratch"] = float64(ledger.RestartsFromScratch)
	m["cluster.requeued"] = float64(res.Requeued)
	m["cluster.abandoned"] = float64(res.Abandoned)
	m["cluster.shed"] = float64(ledger.Shed)
	m["cluster.wasted_work_frac"] = ledger.WastedWorkSec / (ledger.WastedWorkSec + tr.stream.work)
	m["faults.crashes"] = float64(ledger.Crashes)
	m["faults.kills"] = float64(ledger.Kills)
	m["faults.degradations"] = float64(ledger.Degradations)

	var p sim.ShardProfile
	if res.ShardProfile != nil {
		p = *res.ShardProfile
	}
	m["sim.epochs"] = float64(p.Epochs)
	m["sim.batch_events"] = float64(p.BatchEvents)
	m["sim.serial_events"] = float64(p.SerialEvents)
	m["sim.events_per_epoch"] = 0
	if p.Epochs > 0 {
		m["sim.events_per_epoch"] = float64(p.BatchEvents) / float64(p.Epochs)
	}
	m["sim.serial_episodes"] = float64(p.SerialEpisodes)
	m["sim.barrier_wait_s"] = p.BarrierWaitSec
	m["sim.merge_s"] = p.MergeSec
	m["sim.lane_imbalance"] = laneImbalance(p.LaneEvents)

	m["workload.arrivals"] = float64(tr.stream.arrivals)
	m["workload.next_s"] = seams.total[kindNext]
	return m
}

// laneImbalance is the busiest lane's batch events over the mean lane's.
func laneImbalance(lanes []int64) float64 {
	var sum, most int64
	for _, n := range lanes {
		sum += n
		most = max(most, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(lanes)) / float64(sum)
}

// inclusiveProbe is a named profile share: the CPU time of the samples
// whose stack (innermost frame first) match accepts.
type inclusiveProbe struct {
	metric string
	match  func(frames []string) bool
}

const internal = "repro/internal/"

// through accepts a stack that passes through a function with one of the
// name prefixes.
func through(prefixes ...string) func([]string) bool {
	return func(frames []string) bool {
		for _, f := range frames {
			if hasPrefix(f, prefixes) {
				return true
			}
		}
		return false
	}
}

func hasPrefix(f string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

var (
	eachContainer = internal + "simdocker.(*Daemon).EachContainer"
	// sampler is the closure Collector.AttachWorker schedules.
	sampler = internal + "metrics.(*Collector).AttachWorker.func"
	// walkFuncs are the container walk's own code: the iteration, the
	// container accessors and the sampler's per-container callback body
	// (its map probes included), but nothing the callback calls to record
	// a sample.
	walkFuncs = []string{eachContainer, internal + "simdocker.(*Container).", sampler}
)

// containerWalk accepts a sample inside Daemon.EachContainer whose
// innermost repro/internal frame is the walk's own code.
func containerWalk(frames []string) bool {
	for i, f := range frames {
		if moduleOf(f) == "" {
			continue
		}
		return hasPrefix(f, walkFuncs) && through(eachContainer)(frames[i:])
	}
	return false
}

var inclusiveProbes = []inclusiveProbe{
	{"metrics.sampler_frac", through(sampler)},
	// Any stats function of the quantile sketches.
	{"stats.sketch_frac", func(frames []string) bool {
		for _, f := range frames {
			if moduleOf(f) == "stats" && strings.Contains(strings.ToLower(f), "sketch") {
				return true
			}
		}
		return false
	}},
	{"simdocker.each_container_frac", containerWalk},
	{"flowcon.algorithm1_frac", through(internal + "flowcon.(*Controller).runAlgorithm1")},
	{"cluster.place_frac", through(internal+"cluster.LeastLoaded", internal+"cluster.BinPackMemory", internal+"cluster.FirstFit")},
	{"cluster.admit_frac", through(internal+"cluster.(*Manager).admit", internal+"cluster.(*Manager).drainQueue")},
	{"cluster.checkpoint_scan_frac", through(internal + "cluster.(*Manager).checkpointScan")},
}
