package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/flowcon"
	"repro/internal/sim"
	"repro/internal/simdocker"
)

// PostExitSamples is the documented post-exit sampler horizon: an exited
// container contributes at most this many further CPU samples — the
// partial window covering the exit instant and the first all-zero window
// — before the sampler seals it. A sealed container leaves its worker's
// watched set together with its differencing state, so it costs later
// ticks nothing: sampler state is O(running + unsealed) per worker, not
// O(containers ever hosted). Every later sample would be identically
// zero, so the cap loses no information while keeping both collection
// tiers from accumulating an O(makespan) zero tail per finished job.
const PostExitSamples = 2

// JobRecord is the lifecycle summary of one job.
type JobRecord struct {
	Name        string
	ContainerID string
	Worker      string
	Model       string
	StartedAt   float64
	FinishedAt  float64
	Finished    bool
	// Restarts counts re-placements after worker failures (training
	// progress was lost, checkpoint-recovery aside).
	Restarts int
	// Migrations counts lossless live-migration thaws (progress intact).
	Migrations int
	// Checkpoints counts periodic-snapshot restores by the self-healing
	// layer (progress intact, job stayed resident or re-placed lossless).
	Checkpoints int
}

// CompletionTime returns finish − start, the paper's "individual job
// completion time" (its fixed-schedule discussion measures MNIST-TF from
// its 80s launch).
func (r JobRecord) CompletionTime() float64 {
	return r.FinishedAt - r.StartedAt
}

// Collector accumulates everything an experiment reports. It subscribes to
// worker daemons for job lifecycle and samples CPU usage at a fixed
// period, and implements flowcon.Tracer to capture growth-efficiency and
// limit traces.
//
// Memory behavior is governed by the collector's Tier. In both tiers it
// keeps O(1) online summaries (SeriesSummary) per job/kind. TierSummary
// stops there — total memory is O(jobs), independent of makespan — plus
// one bounded CompactSeries per job so GrowthAt can answer the
// GE@fraction report columns. TierDense additionally retains every raw
// sample in full Series, O(jobs × makespan); the raw-series accessors
// (CPUSeries etc.) return nil outside that tier.
type Collector struct {
	engine *sim.Engine
	period float64
	tier   Tier

	jobs  map[string]*JobRecord // by job name
	byCID map[string]*JobRecord

	// Dense-tier raw traces (nil maps in TierSummary).
	cpu    map[string]*Series // usage (fraction of node) by job name
	evals  map[string]*Series // raw evaluation-function values by job name
	limits map[string]*Series // configured soft limit by job name
	growth map[string]*Series // growth efficiency by job name
	lists  map[string]*Series // list membership (0=NL,1=WL,2=CL) by job name

	// Constant-memory summaries, maintained in both tiers.
	cpuSum    map[string]*SeriesSummary
	evalSum   map[string]*SeriesSummary
	limitSum  map[string]*SeriesSummary
	growthSum map[string]*SeriesSummary
	listSum   map[string]*SeriesSummary

	// Summary-tier bounded growth trajectory per job, for GrowthAt.
	growthC map[string]*CompactSeries

	// algoRuns is atomic: in a sharded simulation controllers on different
	// worker lanes record runs concurrently. The total is deterministic
	// even though the increment order is not.
	algoRuns atomic.Int64
}

// NewCollector creates a summary-tier collector sampling CPU usage every
// period seconds. Use NewCollectorTier to opt into dense retention.
func NewCollector(engine *sim.Engine, period float64) *Collector {
	return NewCollectorTier(engine, period, TierSummary)
}

// NewCollectorTier creates a collector with an explicit retention tier.
// The tier only changes what is retained, never what the simulation does:
// samplers fire at the same instants either way.
func NewCollectorTier(engine *sim.Engine, period float64, tier Tier) *Collector {
	if period <= 0 {
		panic("metrics: non-positive sampling period")
	}
	if tier != TierSummary && tier != TierDense {
		panic(fmt.Sprintf("metrics: unknown tier %d", int(tier)))
	}
	c := &Collector{
		engine:    engine,
		period:    period,
		tier:      tier,
		jobs:      make(map[string]*JobRecord),
		byCID:     make(map[string]*JobRecord),
		cpuSum:    make(map[string]*SeriesSummary),
		evalSum:   make(map[string]*SeriesSummary),
		limitSum:  make(map[string]*SeriesSummary),
		growthSum: make(map[string]*SeriesSummary),
		listSum:   make(map[string]*SeriesSummary),
	}
	if tier == TierDense {
		c.cpu = make(map[string]*Series)
		c.evals = make(map[string]*Series)
		c.limits = make(map[string]*Series)
		c.growth = make(map[string]*Series)
		c.lists = make(map[string]*Series)
	} else {
		c.growthC = make(map[string]*CompactSeries)
	}
	return c
}

// Tier returns the collector's retention tier.
func (c *Collector) Tier() Tier { return c.tier }

// TrackJob registers a placed job. Call from the manager's OnPlace hook.
// Re-tracking an existing job name re-binds it to a new container — the
// manager does this when a job is rescheduled after a worker failure; the
// original start time is kept so CompletionTime covers the restart.
func (c *Collector) TrackJob(name, worker, model, containerID string, startedAt float64) {
	if r, ok := c.jobs[name]; ok {
		c.rebind(r, name, worker, containerID)
		r.Restarts++
		return
	}
	r := &JobRecord{
		Name:        name,
		ContainerID: containerID,
		Worker:      worker,
		Model:       model,
		StartedAt:   startedAt,
	}
	c.jobs[name] = r
	c.byCID[containerID] = r
	c.cpuSum[name] = NewSeriesSummary()
	c.evalSum[name] = NewSeriesSummary()
	c.limitSum[name] = NewSeriesSummary()
	c.growthSum[name] = NewSeriesSummary()
	c.listSum[name] = NewSeriesSummary()
	if c.tier == TierDense {
		c.cpu[name] = &Series{}
		c.evals[name] = &Series{}
		c.limits[name] = &Series{}
		c.growth[name] = &Series{}
		c.lists[name] = &Series{}
	} else {
		c.growthC[name] = NewCompactSeries(0)
	}
}

// TrackJobMigrated re-binds a job to the container a live migration
// thawed it into. Call from the manager's OnMigrate hook: unlike a
// failure re-placement the move was lossless, so it counts as a
// Migration, not a Restart. A job never seen before falls through to
// TrackJob (defensive; the manager always places before it migrates).
func (c *Collector) TrackJobMigrated(name, worker, model, containerID string, startedAt float64) {
	r, ok := c.jobs[name]
	if !ok {
		c.TrackJob(name, worker, model, containerID, startedAt)
		return
	}
	c.rebind(r, name, worker, containerID)
	r.Migrations++
}

// TrackJobCheckpointed re-binds a job to the container a periodic
// checkpoint restored it into. Call from the manager's OnRestore hook:
// like a migration thaw the rebind is lossless, but the job (usually)
// never left its worker, so it counts as a Checkpoint — neither a
// Restart nor a Migration. A job never seen before falls through to
// TrackJob (defensive; the manager always places before it snapshots).
func (c *Collector) TrackJobCheckpointed(name, worker, model, containerID string, startedAt float64) {
	r, ok := c.jobs[name]
	if !ok {
		c.TrackJob(name, worker, model, containerID, startedAt)
		return
	}
	c.rebind(r, name, worker, containerID)
	r.Checkpoints++
}

// rebind points an open job record at a new container.
func (c *Collector) rebind(r *JobRecord, name, worker, containerID string) {
	if r.Finished {
		panic(fmt.Sprintf("metrics: re-tracking finished job %q", name))
	}
	delete(c.byCID, r.ContainerID)
	r.ContainerID = containerID
	r.Worker = worker
	c.byCID[containerID] = r
}

// JobExited records a job's completion. Call from the daemon's OnExit
// hook. An exit whose workload did not finish (a worker failure or manual
// stop) is not a completion — the job record stays open for re-binding.
func (c *Collector) JobExited(cont *simdocker.Container) {
	r, ok := c.byCID[cont.ID()]
	if !ok {
		return
	}
	if !cont.Workload().Done() {
		return
	}
	r.FinishedAt = float64(cont.FinishedAt())
	r.Finished = true
}

// observeCPU records one CPU-usage sample in the active tier's stores.
// Allocation-free at steady state: map entries and sketch buckets exist
// after the first sample of a job.
func (c *Collector) observeCPU(name string, t, v float64) {
	if c.tier == TierDense {
		c.cpu[name].Append(t, v)
	}
	c.cpuSum[name].Observe(t, v)
}

// observeEval records one evaluation-function sample.
func (c *Collector) observeEval(name string, t, v float64) {
	if c.tier == TierDense {
		c.evals[name].Append(t, v)
	}
	c.evalSum[name].Observe(t, v)
}

// AttachWorker subscribes the collector to a worker daemon's lifecycle and
// starts the periodic CPU sampler against it. The sampler schedules on the
// daemon's own scheduler, so in a sharded simulation it rides the worker's
// lane and samples in parallel with the other shards. Each worker gets
// its own workerSampler, so samplers on different lanes never share
// state; its watched set holds only running and unsealed containers, so
// a tick costs O(running + unsealed) however many containers the worker
// has hosted.
func (c *Collector) AttachWorker(name string, daemon *simdocker.Daemon) {
	s := c.newWorkerSampler(daemon)
	sched := daemon.Scheduler()
	var sample func()
	sample = func() {
		s.tick(float64(sched.Now()))
		sched.After(c.period, sim.PriorityMetric, "metrics.sample", sample)
	}
	sched.After(c.period, sim.PriorityMetric, "metrics.sample", sample)
}

// watchedContainer is one container a worker's sampler still observes,
// with its usage-differencing state.
type watchedContainer struct {
	cont *simdocker.Container
	// lastCPUSeconds is the cumulative CPU time at the previous sample.
	lastCPUSeconds float64
	// tails counts samples taken after the container was seen exited;
	// at PostExitSamples the container is sealed and leaves the set.
	tails int
}

// workerSampler is one worker daemon's periodic CPU sampler. Its watched
// set lists, in creation order, every container that may still produce a
// sample: containers enter on start and leave once sealed, once exited
// and no longer tracked by any job record, or once removed from the
// daemon's pool (Checkpoint, Repair, kill).
type workerSampler struct {
	c            *Collector
	daemon       *simdocker.Daemon
	watched      []watchedContainer
	lastSampleAt float64
}

// newWorkerSampler subscribes the collector to daemon's exits and starts
// watching the containers already in its pool and every one it starts
// later — OnStart covers Run, Restore and migration thaws alike.
func (c *Collector) newWorkerSampler(daemon *simdocker.Daemon) *workerSampler {
	daemon.OnExit(c.JobExited)
	s := &workerSampler{c: c, daemon: daemon, lastSampleAt: float64(daemon.Scheduler().Now())}
	for _, cont := range daemon.PS(true) {
		s.watch(cont)
	}
	daemon.OnStart(s.watch)
	return s
}

// watch adds a started container to the watched set.
func (s *workerSampler) watch(cont *simdocker.Container) {
	s.watched = append(s.watched, watchedContainer{cont: cont})
}

// tick samples every watched container at time now, then compacts the
// set in place, keeping creation order. Allocation-free at steady state.
func (s *workerSampler) tick(now float64) {
	s.daemon.Sync()
	dt := now - s.lastSampleAt
	kept := s.watched[:0]
	for i := range s.watched {
		if s.sample(&s.watched[i], now, dt) {
			kept = append(kept, s.watched[i])
		}
	}
	clear(s.watched[len(kept):])
	s.watched = kept
	s.lastSampleAt = now
}

// sample records one container's CPU usage over the last dt seconds (and
// its evaluation function while its job is open) and reports whether the
// container stays watched. The daemon is settled, so the container's
// counters are current; an exited container's are final.
func (s *workerSampler) sample(w *watchedContainer, now, dt float64) bool {
	cont := w.cont
	if got, err := s.daemon.Get(cont.ID()); err != nil || got != cont {
		return false
	}
	exited := cont.State() == simdocker.Exited
	r, ok := s.c.byCID[cont.ID()]
	if !ok {
		// Untracked: not yet bound to a job, or replaced after a rebind.
		// Once exited it can never be sampled again.
		return !exited
	}
	cpu := cont.CPUSeconds()
	if dt > 0 {
		s.c.observeCPU(r.Name, now, (cpu-w.lastCPUSeconds)/dt)
	}
	w.lastCPUSeconds = cpu
	if !r.Finished {
		s.c.observeEval(r.Name, now, cont.Workload().Eval())
	}
	if exited {
		w.tails++
		return w.tails < PostExitSamples
	}
	return true
}

// RecordRun implements flowcon.Tracer: it stores growth efficiency, limit
// and list membership per algorithm run.
func (c *Collector) RecordRun(e flowcon.TraceEntry) {
	c.algoRuns.Add(1)
	now := float64(e.At)
	for _, tc := range e.Containers {
		r, ok := c.byCID[tc.ID]
		if !ok {
			continue
		}
		if tc.GDefined {
			if c.tier == TierDense {
				c.growth[r.Name].Append(now, tc.G)
			} else {
				c.growthC[r.Name].Append(now, tc.G)
			}
			c.growthSum[r.Name].Observe(now, tc.G)
		}
		if c.tier == TierDense {
			c.limits[r.Name].Append(now, tc.Limit)
			c.lists[r.Name].Append(now, float64(tc.List))
		}
		c.limitSum[r.Name].Observe(now, tc.Limit)
		c.listSum[r.Name].Observe(now, float64(tc.List))
	}
}

// AlgorithmRuns returns how many Algorithm 1 trace entries were recorded.
func (c *Collector) AlgorithmRuns() int { return int(c.algoRuns.Load()) }

// Jobs returns all tracked job records sorted by start time then name.
func (c *Collector) Jobs() []JobRecord {
	out := make([]JobRecord, 0, len(c.jobs))
	for _, r := range c.jobs {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartedAt != out[j].StartedAt {
			return out[i].StartedAt < out[j].StartedAt
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Job returns one tracked job record by name.
func (c *Collector) Job(name string) (JobRecord, bool) {
	r, ok := c.jobs[name]
	if !ok {
		return JobRecord{}, false
	}
	return *r, true
}

// CPUSeries returns the sampled CPU-usage trace for a job. Dense tier
// only: nil in TierSummary — use CPUSummary there.
func (c *Collector) CPUSeries(name string) *Series { return c.cpu[name] }

// EvalSeries returns the sampled evaluation-function trace for a job.
// Dense tier only: nil in TierSummary — use EvalSummary there.
func (c *Collector) EvalSeries(name string) *Series { return c.evals[name] }

// LimitSeries returns the configured-limit trace for a job. Dense tier
// only: nil in TierSummary — use LimitSummary there. Event traces that
// include limit updates (the §5.3 golden) therefore require TierDense.
func (c *Collector) LimitSeries(name string) *Series { return c.limits[name] }

// GrowthSeries returns the growth-efficiency trace for a job. Dense tier
// only: nil in TierSummary — use GrowthAt or GrowthSummary there.
func (c *Collector) GrowthSeries(name string) *Series { return c.growth[name] }

// ListSeries returns the list-membership trace for a job. Dense tier
// only: nil in TierSummary — use ListSummary there.
func (c *Collector) ListSeries(name string) *Series { return c.lists[name] }

// CPUSummary returns the constant-memory CPU-usage summary for a job
// (available in both tiers), or nil for an untracked job.
func (c *Collector) CPUSummary(name string) *SeriesSummary { return c.cpuSum[name] }

// EvalSummary returns the evaluation-function summary for a job.
func (c *Collector) EvalSummary(name string) *SeriesSummary { return c.evalSum[name] }

// LimitSummary returns the configured-limit summary for a job.
func (c *Collector) LimitSummary(name string) *SeriesSummary { return c.limitSum[name] }

// GrowthSummary returns the growth-efficiency summary for a job.
func (c *Collector) GrowthSummary(name string) *SeriesSummary { return c.growthSum[name] }

// ListSummary returns the list-membership summary for a job.
func (c *Collector) ListSummary(name string) *SeriesSummary { return c.listSum[name] }

// GrowthAt returns the growth efficiency in effect for a job at time t,
// the tier-agnostic query behind the GE@fraction report columns. ok is
// false when the job is unknown or had no growth sample at or before t.
// In TierDense the answer is exact; in TierSummary it comes from the
// bounded CompactSeries and is exact until compaction triggers (which no
// built-in scenario reaches — see DefaultCompactPoints).
func (c *Collector) GrowthAt(name string, t float64) (float64, bool) {
	if c.tier == TierDense {
		g := c.growth[name]
		if g == nil || g.Len() == 0 || g.Points()[0].T > t {
			return 0, false
		}
		return g.At(t), true
	}
	g := c.growthC[name]
	if g == nil {
		return 0, false
	}
	return g.At(t)
}

// MemoryBytes estimates the collector's retained observability memory:
// every series, summary and compact trajectory plus job records. It is
// the figure cmd/benchjson records as collector_bytes, used to verify
// the summary tier is O(jobs) rather than O(jobs × makespan).
func (c *Collector) MemoryBytes() int {
	total := 0
	for _, m := range []map[string]*Series{c.cpu, c.evals, c.limits, c.growth, c.lists} {
		for _, s := range m {
			total += s.MemoryBytes()
		}
	}
	for _, m := range []map[string]*SeriesSummary{c.cpuSum, c.evalSum, c.limitSum, c.growthSum, c.listSum} {
		for _, s := range m {
			total += s.MemoryBytes()
		}
	}
	for _, s := range c.growthC {
		total += s.MemoryBytes()
	}
	const perJobRecord = 160 // struct + two map entries
	total += len(c.jobs) * perJobRecord
	return total
}

// Makespan returns the total schedule length: latest finish over all jobs
// (0 origin, as the paper measures from the first submission at 0s).
func (c *Collector) Makespan() float64 {
	end := 0.0
	for _, r := range c.jobs {
		if r.Finished && r.FinishedAt > end {
			end = r.FinishedAt
		}
	}
	return end
}

// AllFinished reports whether every tracked job completed.
func (c *Collector) AllFinished() bool {
	for _, r := range c.jobs {
		if !r.Finished {
			return false
		}
	}
	return len(c.jobs) > 0
}

// Overlap returns the time span during which all the named jobs were
// running simultaneously (the quantity the paper analyses in Section 5.3).
func (c *Collector) Overlap(names ...string) float64 {
	start := 0.0
	end := 0.0
	for i, n := range names {
		r, ok := c.jobs[n]
		if !ok || !r.Finished {
			return 0
		}
		if i == 0 || r.StartedAt > start {
			start = r.StartedAt
		}
		if i == 0 || r.FinishedAt < end {
			end = r.FinishedAt
		}
	}
	if end <= start {
		return 0
	}
	return end - start
}
