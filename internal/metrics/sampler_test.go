package metrics

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/simdocker"
)

// fixedWork is a workload with a known CPU budget and a constant
// evaluation value, so the daemon computes exact completion times and a
// steady sampler tick observes the same values every period.
type fixedWork struct{ rem float64 }

func (w *fixedWork) Advance(c float64) { w.rem -= c }
func (w *fixedWork) CPUDemand() float64 {
	if w.Done() {
		return 0
	}
	return 1
}
func (w *fixedWork) Done() bool         { return w.rem <= 1e-9 }
func (w *fixedWork) Eval() float64      { return 1 }
func (w *fixedWork) Remaining() float64 { return w.rem }

// One worker runs 1,200 short jobs back to back: every tenth is stopped
// before it finishes (leaving an exited husk in the pool) and every tenth
// is checkpointed and restored into a fresh container (removing the
// original from the pool). After every tick the watched set must hold at
// most the running containers plus the exited ones still inside their
// PostExitSamples window, however long the worker's history grows, and
// never a container that has left the pool.
func TestSamplerStateBoundedByRunning(t *testing.T) {
	const (
		jobs   = 1200
		period = 1.0
	)
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollector(e, period)
	s := col.newWorkerSampler(d)

	for i := 0; i < jobs; i++ {
		name := fmt.Sprintf("job-%04d", i)
		start := sim.Time(2 * i)
		e.At(start, sim.PriorityState, "launch", func() {
			c, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: name, Workload: &fixedWork{rem: 1.5}})
			if err != nil {
				t.Fatal(err)
			}
			col.TrackJob(name, "w0", "m", c.ID(), float64(start))
			switch i % 10 {
			case 3:
				e.After(1, sim.PriorityState, "stop", func() {
					if err := d.Stop(c.ID()); err != nil {
						t.Error(err)
					}
				})
			case 7:
				e.After(0.5, sim.PriorityState, "freeze", func() {
					cp, err := d.Checkpoint(c.ID())
					if err != nil {
						t.Error(err)
						return
					}
					e.After(1.25, sim.PriorityState, "thaw", func() {
						r, err := d.Restore(cp)
						if err != nil {
							t.Error(err)
							return
						}
						col.TrackJobCheckpointed(name, "w0", "m", r.ID(), float64(start))
					})
				})
			}
		})
	}
	maxWatched := 0
	var tick func()
	tick = func() {
		now := float64(e.Now())
		s.tick(now)
		bound := d.RunningCount()
		for _, c := range d.PS(true) {
			if c.State() == simdocker.Exited && float64(c.FinishedAt()) >= now-PostExitSamples*period {
				bound++
			}
		}
		for _, w := range s.watched {
			if c, err := d.Get(w.cont.ID()); err != nil || c != w.cont {
				t.Fatalf("t=%g: still watching %s, which left the pool", now, w.cont.ID())
			}
		}
		if len(s.watched) > bound {
			t.Fatalf("t=%g: %d watched containers, bound %d (running + unsealed)", now, len(s.watched), bound)
		}
		maxWatched = max(maxWatched, len(s.watched))
		if now < 2*jobs+20 {
			e.After(period, sim.PriorityMetric, "tick", tick)
		}
	}
	e.After(period, sim.PriorityMetric, "tick", tick)
	e.RunAll()

	if hosted := len(d.PS(true)); hosted < jobs {
		t.Fatalf("worker retains %d containers, want ≥ %d of history", hosted, jobs)
	}
	if len(s.watched) != 0 {
		t.Fatalf("%d containers still watched after every job sealed", len(s.watched))
	}
	if maxWatched > 8 {
		t.Fatalf("watched set peaked at %d containers on a worker running at most a few", maxWatched)
	}
	finished := 0
	for _, r := range col.Jobs() {
		if r.Finished {
			finished++
		}
	}
	if want := jobs - jobs/10; finished != want {
		t.Fatalf("%d jobs finished, want %d (all but the stopped ones)", finished, want)
	}
}

// samplerFixture returns an engine and a sampler watching `running`
// long-lived tracked jobs on a worker that already ran `retired` short
// jobs to completion and sealed them.
func samplerFixture(tb testing.TB, running, retired int) (*sim.Engine, *workerSampler) {
	tb.Helper()
	e := sim.NewEngine()
	d := simdocker.NewDaemon(e, 1.0)
	d.Pull(simdocker.Image{Ref: "img:1"})
	col := NewCollector(e, 1.0)
	s := col.newWorkerSampler(d)
	launch := func(name string, work float64) {
		c, err := d.Run(simdocker.RunSpec{Image: "img:1", Name: name, Workload: &fixedWork{rem: work}})
		if err != nil {
			tb.Fatal(err)
		}
		col.TrackJob(name, "w0", "m", c.ID(), float64(c.StartedAt()))
	}
	now := e.Now()
	for i := 0; i < retired; i++ {
		launch(fmt.Sprintf("retired-%d", i), 0.5)
		for k := 0; k <= PostExitSamples; k++ {
			now++
			e.Run(now)
			s.tick(float64(now))
		}
	}
	for i := 0; i < running; i++ {
		launch(fmt.Sprintf("live-%d", i), 1e9)
	}
	if got := len(d.PS(true)); got != retired+running {
		tb.Fatalf("worker hosts %d containers, want %d", got, retired+running)
	}
	if len(s.watched) != running {
		tb.Fatalf("%d containers watched, want the %d running", len(s.watched), running)
	}
	return e, s
}

// A steady-state tick over running containers allocates nothing, however
// much history the worker has.
func TestSamplerTickAllocsZero(t *testing.T) {
	e, s := samplerFixture(t, 8, 64)
	now := e.Now()
	avg := testing.AllocsPerRun(200, func() {
		now++
		e.Run(now)
		s.tick(float64(now))
	})
	if avg != 0 {
		t.Fatalf("steady-state sampler tick allocates %.2f times", avg)
	}
}

// BenchmarkSamplerTick shows per-tick cost independent of retired
// history: the retired=0 and retired=512 cases watch the same 8 running
// containers and should report the same ns/op.
func BenchmarkSamplerTick(b *testing.B) {
	for _, retired := range []int{0, 512} {
		b.Run(fmt.Sprintf("retired=%d", retired), func(b *testing.B) {
			e, s := samplerFixture(b, 8, retired)
			now := e.Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				e.Run(now)
				s.tick(float64(now))
			}
		})
	}
}
