package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/dlmodel"
	"repro/internal/experiment"
	"repro/internal/flowcon"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// spanKind names the layer seam a span was recorded at.
type spanKind uint8

const (
	kindNext      spanKind = iota // workload.ArrivalStream.Next
	kindPlace                     // cluster.Placement call
	kindTick                      // flowcon executor tick scheduled through sim.Scheduler
	kindListener                  // flowcon listener run or sched.Node start/exit notification
	kindStats                     // sched.Node.RunningStats (simdocker settle + stats)
	kindSetLimit                  // sched.Node.SetCPULimit (simdocker limit update)
	kindRecordRun                 // flowcon.Tracer.RecordRun (metrics collector)
	numKinds
)

var kindNames = [numKinds]string{
	kindNext:      "workload.next",
	kindPlace:     "cluster.place",
	kindTick:      "flowcon.tick",
	kindListener:  "flowcon.listener",
	kindStats:     "simdocker.stats",
	kindSetLimit:  "simdocker.set_limit",
	kindRecordRun: "metrics.record_run",
}

// span is one timed call across a seam. Times are nanoseconds since the
// trace's origin; parent indexes the enclosing span of the same recorder
// (-1 for a root).
type span struct {
	start, end int64
	parent     int32
	kind       spanKind
}

// recorder holds the spans of one execution context and the stack of its
// open spans. A worker's recorder is used only by code running for that
// worker: its lane's events, which never run concurrently with each other,
// and cluster-lane notifications, which the sharded executor never runs
// alongside a worker batch. So it needs no lock. The cluster recorder is
// shared by every caller and locks.
type recorder struct {
	mu     *sync.Mutex
	origin time.Time
	spans  []span
	open   []int32
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(k spanKind) {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{start: r.now(), parent: parent, kind: k})
}

// end closes the innermost open span.
func (r *recorder) end() {
	n := len(r.open) - 1
	r.spans[r.open[n]].end = r.now()
	r.open = r.open[:n]
}

// add records a finished root span; it is the locked entry point of the
// shared cluster recorder.
func (r *recorder) add(k spanKind, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{start: start, end: end, parent: -1, kind: k})
	r.mu.Unlock()
}

// tracer wraps every layer seam of one Spec and owns the recorders.
type tracer struct {
	origin   time.Time
	cluster  *recorder
	workers  []*recorder
	policies []sched.Policy
	nodes    []sched.Node
	stream   *tracedStream
}

// instrument rewires spec's seams through timing wrappers. The wrappers
// only observe: every call is forwarded unchanged, in order, with its
// results returned as they came.
func instrument(spec *experiment.Spec) *tracer {
	t := &tracer{origin: time.Now()}
	t.cluster = &recorder{mu: new(sync.Mutex), origin: t.origin}

	t.stream = &tracedStream{inner: spec.Arrivals, rec: t.cluster}
	spec.Arrivals = t.stream

	place := spec.Placement
	if place == nil {
		place = cluster.LeastLoaded
	}
	spec.Placement = func(ws []*cluster.Worker, p dlmodel.Profile) *cluster.Worker {
		start := t.cluster.now()
		w := place(ws, p)
		t.cluster.add(kindPlace, start, t.cluster.now())
		return w
	}

	newPolicy := spec.NewPolicy
	spec.NewPolicy = func(tr flowcon.Tracer) sched.Policy {
		rec := &recorder{origin: t.origin}
		t.workers = append(t.workers, rec)
		p := newPolicy(&tracedTracer{inner: tr, rec: rec})
		t.policies = append(t.policies, p)
		return &tracedPolicy{inner: p, rec: rec, t: t}
	}
	return t
}

// retainedContainers counts the containers, running or exited, that the
// workers' runtimes still hold at the end of the run.
func (t *tracer) retainedContainers() int {
	n := 0
	for _, node := range t.nodes {
		if w, ok := node.(*cluster.Worker); ok {
			n += len(w.PS(true))
		}
	}
	return n
}

// controllerOf returns a FlowCon policy's controller, nil for other policies.
func controllerOf(p sched.Policy) *flowcon.Controller {
	if fc, ok := p.(*sched.FlowCon); ok {
		return fc.Controller()
	}
	return nil
}

type tracedStream struct {
	inner    workload.ArrivalStream
	rec      *recorder
	arrivals int
	work     float64
}

func (s *tracedStream) Next() (workload.Submission, bool) {
	start := s.rec.now()
	sub, ok := s.inner.Next()
	s.rec.add(kindNext, start, s.rec.now())
	if ok {
		s.arrivals++
		s.work += sub.Profile.TotalWork
	}
	return sub, ok
}

func (s *tracedStream) Err() error { return s.inner.Err() }

type tracedPolicy struct {
	inner sched.Policy
	rec   *recorder
	t     *tracer
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Attach(engine sim.Scheduler, node sched.Node) {
	p.t.nodes = append(p.t.nodes, node)
	p.inner.Attach(&tracedScheduler{inner: engine, rec: p.rec}, &tracedNode{Node: node, rec: p.rec})
}

// tracedScheduler times the callbacks a policy schedules on its worker's
// lane: executor ticks, and listener runs at every other priority.
type tracedScheduler struct {
	inner sim.Scheduler
	rec   *recorder
}

func (s *tracedScheduler) Now() sim.Time { return s.inner.Now() }

func (s *tracedScheduler) At(t sim.Time, prio sim.Priority, name string, fn func()) *sim.Event {
	return s.inner.At(t, prio, name, s.wrap(prio, fn))
}

func (s *tracedScheduler) After(d sim.Duration, prio sim.Priority, name string, fn func()) *sim.Event {
	return s.inner.After(d, prio, name, s.wrap(prio, fn))
}

func (s *tracedScheduler) wrap(prio sim.Priority, fn func()) func() {
	k := kindListener
	if prio == sim.PriorityExecutor {
		k = kindTick
	}
	return func() {
		s.rec.begin(k)
		fn()
		s.rec.end()
	}
}

type tracedNode struct {
	sched.Node
	rec *recorder
}

func (n *tracedNode) RunningStats() []flowcon.Stat {
	n.rec.begin(kindStats)
	st := n.Node.RunningStats()
	n.rec.end()
	return st
}

func (n *tracedNode) SetCPULimit(id string, limit float64) error {
	n.rec.begin(kindSetLimit)
	err := n.Node.SetCPULimit(id, limit)
	n.rec.end()
	return err
}

func (n *tracedNode) OnContainerStart(fn func(id string)) {
	n.Node.OnContainerStart(n.listener(fn))
}

func (n *tracedNode) OnContainerExit(fn func(id string)) {
	n.Node.OnContainerExit(n.listener(fn))
}

func (n *tracedNode) listener(fn func(id string)) func(id string) {
	return func(id string) {
		n.rec.begin(kindListener)
		fn(id)
		n.rec.end()
	}
}

type tracedTracer struct {
	inner flowcon.Tracer
	rec   *recorder
}

func (t *tracedTracer) RecordRun(e flowcon.TraceEntry) {
	t.rec.begin(kindRecordRun)
	t.inner.RecordRun(e)
	t.rec.end()
}

// seamTotals is the per-kind call count, total span time and self time
// (span time minus the time of its child spans), in seconds.
type seamTotals struct {
	calls [numKinds]int64
	total [numKinds]float64
	self  [numKinds]float64
}

func (t *tracer) totals() seamTotals {
	var s seamTotals
	for _, r := range append([]*recorder{t.cluster}, t.workers...) {
		for _, sp := range r.spans {
			d := float64(sp.end-sp.start) / 1e9
			s.calls[sp.kind]++
			s.total[sp.kind] += d
			s.self[sp.kind] += d
			if sp.parent >= 0 {
				s.self[r.spans[sp.parent].kind] -= d
			}
		}
	}
	return s
}

// writeSpans writes every recorded span as one tab-separated line:
// recorder (0 = cluster, w+1 = worker w), span index, parent index, seam
// name, start and end in nanoseconds since the trace's origin.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "recorder\tspan\tparent\tname\tstart_ns\tend_ns")
	for ri, r := range append([]*recorder{t.cluster}, t.workers...) {
		for i, sp := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", ri, i, sp.parent, kindNames[sp.kind], sp.start, sp.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
