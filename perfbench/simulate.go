package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate"
)

// geOneSource is the x ≥ 1 population program of the ladder tests: its
// conversion keeps a handful of pointer agents walking an instruction cycle
// among register agents, so almost every interaction is null.
const geOneSource = `program ge1
registers x

proc Main {
  of false
  while not detect x {
  }
  of true
  while true {
  }
}
`

// simRun is one convergence run of the simulate workload.
type simRun struct {
	name   string
	p      *protocol.Protocol
	kernel string
	// initial builds a fresh start configuration.
	initial func() (*multiset.Multiset, error)
	want    protocol.Output
	opts    simulate.Options
	// budgetEnds marks runs that may end on the interaction budget rather
	// than by a stabilisation criterion; their check is the output then.
	budgetEnds bool
}

const (
	// nullM is the null class's population: the x ≥ 1 construction in the
	// leader model, below the m ≥ 4096 point where the auto kernel switches
	// from exact to the collision kernel, run with both.
	nullM = 512
	// nullBudget is the ladder test's budget of 40·m² interactions.
	nullBudget = 40 * nullM * nullM
)

// The classes' runs. Each pass repeats a run with fresh seeds, so a
// class's time averages over the runs' random convergence times.
var (
	// denseRuns gives, per dense kernel, the number of runs per pass at
	// each majority population.
	denseRuns = map[string]map[int64]int{
		simulate.KernelExact: {1 << 16: 4, 1 << 18: 2},
		simulate.KernelBatch: {1 << 16: 4, 1 << 20: 2},
	}
	// fluidSizes are the majority populations the auto kernel sends to
	// the fluid tier (m ≥ 4·10⁹ is past its forced-fluid bound).
	fluidSizes = []int64{4_000_000_000, 10_000_000_000, 100_000_000_000, 1_000_000_000_000}
)

const (
	nullRepeats  = 12
	fluidRepeats = 3
)

// simulateBench runs convergence through simulate; the only front-end work
// (converting x ≥ 1) is set-up.
type simulateBench struct {
	classes map[string][]simRun
	// Traced-phase accumulators per class: interactions, run time and the
	// scheduler counters.
	steps map[string]int64
	nanos map[string]int64
	sched map[string]*obs.SchedSnap
}

func setupSimulate(seed int64) (bench, error) {
	maj, err := baseline.Majority()
	if err != nil {
		return nil, err
	}
	prog, err := popprog.Parse(geOneSource)
	if err != nil {
		return nil, err
	}
	ge1, err := optimized(prog)
	if err != nil {
		return nil, err
	}
	b := &simulateBench{classes: map[string][]simRun{}, steps: map[string]int64{}, nanos: map[string]int64{},
		sched: map[string]*obs.SchedSnap{}}
	majority := func(kernel string, m int64) simRun {
		in := []int64{m * 55 / 100, m - m*55/100}
		return simRun{
			name:    fmt.Sprintf("majority %s m=%d", kernel, m),
			p:       maj,
			kernel:  kernel,
			initial: func() (*multiset.Multiset, error) { return maj.InitialConfig(in...) },
			want:    verdict(baseline.MajorityPredicate(in)),
			opts:    simulate.Options{Kernel: kernel, MaxSteps: 1 << 62},
		}
	}
	add := func(class string, repeats int, r simRun) {
		for i := 0; i < repeats; i++ {
			b.classes[class] = append(b.classes[class], r)
		}
	}
	for _, k := range []string{simulate.KernelExact, simulate.KernelBatch} {
		for m, runs := range denseRuns[k] {
			add("dense", runs, majority(k, m))
		}
		add("null", nullRepeats, simRun{
			name:   fmt.Sprintf("x>=1 %s m=%d", k, nullM),
			p:      ge1.Protocol,
			kernel: k,
			initial: func() (*multiset.Multiset, error) {
				return ge1.LeaderConfig(nullM-int64(ge1.NumPointers), 0)
			},
			want: protocol.OutputTrue,
			// The stable window is the whole budget: the heuristic would
			// stop on the initial false opinion long before the flip.
			opts:       simulate.Options{Kernel: k, MaxSteps: nullBudget, StableWindow: nullBudget},
			budgetEnds: true,
		})
	}
	for _, m := range fluidSizes {
		add("fluid", fluidRepeats, majority(simulate.KernelAuto, m))
	}
	return b, nil
}

func (b *simulateBench) pass(p *pass) {
	rng := rand.New(rand.NewSource(p.seed))
	for _, class := range []string{"dense", "null", "fluid"} {
		runs := b.classes[class]
		before, _ := obs.Snapshot()
		p.task(class, func(sp int) error {
			for _, i := range rng.Perm(len(runs)) {
				if err := b.run(p.tr, sp, class, runs[i], rng.Int63()); err != nil {
					return err
				}
			}
			return nil
		})
		if p.tr != nil {
			after, _ := obs.Snapshot()
			d := b.sched[class]
			if d == nil {
				d = &obs.SchedSnap{}
				b.sched[class] = d
			}
			d.Steps += after.Sched.Steps - before.Sched.Steps
			d.Effective += after.Sched.Effective - before.Sched.Effective
			d.NullsSkipped += after.Sched.NullsSkipped - before.Sched.NullsSkipped
			d.BatchRounds += after.Sched.BatchRounds - before.Sched.BatchRounds
			d.BatchFallbacks += after.Sched.BatchFallbacks - before.Sched.BatchFallbacks
			d.FluidRKSteps += after.Sched.FluidRKSteps - before.Sched.FluidRKSteps
		}
	}
}

func (b *simulateBench) run(tr *tracer, sp int, class string, r simRun, seed int64) error {
	c, err := r.initial()
	if err != nil {
		return err
	}
	size := c.Size()
	s, err := call(tr, sp, "simulate.NewKernelScheduler", func() (sched.BatchScheduler, error) {
		return simulate.NewKernelScheduler(r.p, sched.NewRand(seed), r.kernel, c.Size())
	})
	if err != nil {
		return err
	}
	t0 := time.Now()
	res, err := call(tr, sp, "simulate.Run", func() (*simulate.Result, error) {
		return simulate.Run(r.p, c, s, r.opts)
	})
	if tr != nil && res != nil {
		b.nanos[class] += time.Since(t0).Nanoseconds()
		b.steps[class] += res.Steps
	}
	if err != nil && !(r.budgetEnds && errors.Is(err, simulate.ErrBudgetExhausted)) {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	if res.Output != r.want {
		return fmt.Errorf("%s: output %v after %d interactions, want %v", r.name, res.Output, res.Steps, r.want)
	}
	if res.Final.Size() != size {
		return fmt.Errorf("%s: population changed", r.name)
	}
	return nil
}

func (b *simulateBench) layers(passes int) map[string]float64 {
	n := float64(passes)
	out := map[string]float64{}
	// The fluid tier integrates densities rather than stepping agents, so
	// its interaction rate (~10¹⁶/s) says nothing about the integrator;
	// its rate is RK steps per second.
	for _, class := range []string{"dense", "null"} {
		if nanos := b.nanos[class]; nanos > 0 {
			out["sched.interactions_per_s."+class] = float64(b.steps[class]) / (float64(nanos) / 1e9)
		}
	}
	if nanos, d := b.nanos["fluid"], b.sched["fluid"]; nanos > 0 && d != nil {
		out["fluid.rk_steps_per_s"] = float64(d.FluidRKSteps) / (float64(nanos) / 1e9)
	}
	if d := b.sched["null"]; d != nil {
		out["sched.steps.null"] = float64(d.Steps) / n
		out["sched.effective.null"] = float64(d.Effective) / n
		out["sched.nulls_skipped.null"] = float64(d.NullsSkipped) / n
		out["sched.effective_frac.null"] = float64(d.Effective) / float64(d.Steps)
	}
	for _, class := range []string{"dense", "null"} {
		if d := b.sched[class]; d != nil {
			out["sched.batch_rounds."+class] = float64(d.BatchRounds) / n
			out["sched.batch_fallbacks."+class] = float64(d.BatchFallbacks) / n
			out["sched.fallback_frac."+class] = float64(d.BatchFallbacks) / float64(d.BatchRounds+d.BatchFallbacks)
		}
	}
	return out
}

func (b *simulateBench) settle(*recorder) {}

func (b *simulateBench) close() {}
