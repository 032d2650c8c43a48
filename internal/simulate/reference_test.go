package simulate

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// runPerStep is the per-interaction reference runner: one Step per loop
// iteration, the stable-window heuristic evaluated after every step and the
// quiescence check on every QuiescencePeriod boundary. Run must return the
// same Result and error for every scheduler that it drives step by step.
func runPerStep(p *protocol.Protocol, c *multiset.Multiset, s sched.Scheduler, opts Options) (*Result, error) {
	maxSteps := opts.maxSteps()
	window := opts.stableWindow()
	period := opts.quiescencePeriod()

	res := &Result{Final: c}
	lastOutput := p.OutputOf(c)
	var stableFor, lastEffective int64
	outputChanged := false

	for res.Steps < maxSteps {
		changed := s.Step(c)
		res.Steps++
		if changed {
			res.EffectiveSteps++
			lastEffective = res.Steps
		}

		out := p.OutputOf(c)
		if out == lastOutput {
			stableFor++
		} else {
			lastOutput = out
			stableFor = 0
			res.ConvergenceStep = res.Steps
			outputChanged = true
		}

		if out != protocol.OutputMixed && stableFor >= window {
			res.Output = out
			return res, nil
		}

		if res.Steps%period == 0 {
			if definitelyStable(p, c, s) {
				res.Output = out
				res.Quiescent = true
				if !outputChanged {
					res.ConvergenceStep = lastEffective
				}
				return res, nil
			}
		}
	}
	res.Output = p.OutputOf(c)
	return res, fmt.Errorf("%w (protocol %q, %d steps, output %v)",
		ErrBudgetExhausted, p.Name, res.Steps, res.Output)
}

// TestRunMatchesPerStepReference pins Run's one-step chunks to the
// per-step reference byte for byte — the full Result and the error — for
// every scheduler Run drives through Step: RandomPair, TransitionFair,
// BatchRandomPair without a batch size, and a ring topology with
// crash/revive faults (whose own Quiescent predicate decides quiescence).
func TestRunMatchesPerStepReference(t *testing.T) {
	gather := func(t testing.TB) *protocol.Protocol {
		b := protocol.NewBuilder("gather")
		b.Input("a", "b")
		b.Transition("a", "b", "a", "a")
		b.Accepting("a", "b")
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ring := func(faults *sched.Faults) func(*protocol.Protocol, *rand.Rand, int64) sched.Scheduler {
		return func(p *protocol.Protocol, rng *rand.Rand, m int64) sched.Scheduler {
			s, err := sched.TopologySpec{Kind: sched.TopoRing}.NewScheduler(p, rng, faults, m)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	pair := func(p *protocol.Protocol, rng *rand.Rand, _ int64) sched.Scheduler {
		return sched.NewRandomPair(p, rng)
	}
	fair := func(p *protocol.Protocol, rng *rand.Rand, _ int64) sched.Scheduler {
		return sched.NewTransitionFair(p, rng)
	}
	batch := func(p *protocol.Protocol, rng *rand.Rand, _ int64) sched.Scheduler {
		return sched.NewBatchRandomPair(p, rng)
	}
	cases := []struct {
		name  string
		proto func(testing.TB) *protocol.Protocol
		input []int64
		sched func(*protocol.Protocol, *rand.Rand, int64) sched.Scheduler
		opts  Options
		// end is how every seed's reference run must stop: "window"
		// (heuristic), "quiescent", "quiescent-unchanged" (quiescent with
		// the output never changed, so ConvergenceStep is the last
		// effective step), "budget", or "" for any of these.
		end string
	}{
		{"pair/majority", majority, []int64{9, 6}, pair,
			Options{StableWindow: 200, QuiescencePeriod: 1 << 40}, "window"},
		{"pair/budget", majority, []int64{5, 5}, pair,
			Options{MaxSteps: 333, StableWindow: 1 << 40}, "budget"},
		{"fair/majority", majority, []int64{4, 7}, fair,
			Options{StableWindow: 1 << 40, QuiescencePeriod: 5}, "quiescent"},
		{"batch0/gather", gather, []int64{1, 9}, batch,
			Options{StableWindow: 1 << 40, QuiescencePeriod: 10}, "quiescent-unchanged"},
		{"batch0/epidemic", epidemic, []int64{1, 20}, batch,
			Options{StableWindow: 1 << 40, QuiescencePeriod: 3}, "quiescent"},
		{"ring/faults", epidemic, []int64{1, 9},
			ring(&sched.Faults{Crash: 0.02, Revive: 0.3}),
			Options{MaxSteps: 20_000, StableWindow: 500, QuiescencePeriod: 11}, ""},
		{"ring/quiescent", epidemic, []int64{1, 9},
			ring(nil), Options{StableWindow: 1 << 40, QuiescencePeriod: 4}, "quiescent"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.proto(t)
			var m int64
			for _, v := range tc.input {
				m += v
			}
			for seed := int64(1); seed <= 6; seed++ {
				run := func(runner func(*protocol.Protocol, *multiset.Multiset, sched.Scheduler, Options) (*Result, error)) (*Result, error) {
					c, err := p.InitialConfig(tc.input...)
					if err != nil {
						t.Fatal(err)
					}
					return runner(p, c, tc.sched(p, sched.NewRand(seed), m), tc.opts)
				}
				want, wantErr := run(runPerStep)
				got, gotErr := run(Run)
				if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("seed %d: Run = %+v, %v\nreference = %+v, %v", seed, got, gotErr, want, wantErr)
				}
				var end string
				switch {
				case errors.Is(wantErr, ErrBudgetExhausted):
					end = "budget"
				case wantErr != nil:
					t.Fatalf("seed %d: %v", seed, wantErr)
				case want.Quiescent && tc.end == "quiescent-unchanged":
					if want.ConvergenceStep == 0 || want.Output != protocol.OutputTrue {
						t.Fatalf("seed %d: quiescent run reports ConvergenceStep %d, output %v",
							seed, want.ConvergenceStep, want.Output)
					}
					end = "quiescent-unchanged"
				case want.Quiescent:
					end = "quiescent"
				default:
					end = "window"
				}
				if tc.end != "" && end != tc.end {
					t.Fatalf("seed %d: run ended by %s, want %s (%+v)", seed, end, tc.end, want)
				}
			}
		})
	}
}

// TestOptionsValidate pins each rule of Options.Validate.
func TestOptionsValidate(t *testing.T) {
	ring := &sched.TopologySpec{Kind: sched.TopoRing}
	cases := []struct {
		name    string
		opts    Options
		wantErr string // empty: valid
	}{
		{"zero value", Options{}, ""},
		{"every kernel", Options{Kernel: KernelLangevin, BatchSize: 64}, ""},
		{"topology with faults", Options{Topology: ring, Faults: &sched.Faults{Crash: 0.1, Revive: 0.5}}, ""},
		{"negative numbers select defaults", Options{MaxSteps: -1, StableWindow: -1, QuiescencePeriod: -1}, ""},
		{"unknown kernel", Options{Kernel: "turbo"}, `unknown kernel "turbo"`},
		{"topology with kernel", Options{Topology: ring, Kernel: KernelAuto}, "Topology excludes Kernel and BatchSize"},
		{"topology with batch", Options{Topology: ring, BatchSize: 64}, "Topology excludes Kernel and BatchSize"},
		{"unknown policy", Options{Topology: &sched.TopologySpec{Kind: sched.TopoRing, Policy: "chaos"}},
			`unknown edge-selection policy "chaos"`},
		{"faults without topology", Options{Faults: &sched.Faults{Crash: 0.1}}, "Faults requires Topology"},
		{"fault rate out of range", Options{Topology: ring, Faults: &sched.Faults{Revive: 1.5}}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}
