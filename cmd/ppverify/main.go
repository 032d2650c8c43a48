// Command ppverify runs the exact, exhaustive verifications: it model-checks
// stable computation (bottom-SCC analysis under global fairness) for the
// repository's protocols and for the paper's construction compiled down to
// population machines.
//
// Usage:
//
//	ppverify [-max-agents N]
//	         [-targets majority,unary,binary,remainder,product,figure1,czerner1,equality1]
//	         [-mem-budget B] [-spill-dir DIR]
//	         [-metrics] [-metrics-interval D] [-pprof ADDR]
//
// -mem-budget caps the resident bytes of the explorer's variable-size
// structures (interner key log + frontier); beyond it sealed segments and
// frontier overflow spill to -spill-dir (default the system temp directory)
// and are streamed back, so verification scales to state spaces far beyond
// RAM. Results — verdicts, witnesses, error points — are bit-identical to
// the all-RAM run for any budget. -metrics prints a JSON telemetry snapshot
// (exploration levels, frontier widths, states/sec, interner occupancy,
// spill volume) to stderr on exit; -metrics-interval emits periodic
// snapshot lines while a verification is running; -pprof serves
// net/http/pprof and expvar for live profiling.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/obs/obsflag"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ppverify:", err)
		os.Exit(1)
	}
}

func run() error {
	maxAgents := flag.Int64("max-agents", 5, "largest population size to verify exhaustively")
	targets := flag.String("targets", "majority,unary,binary,remainder,product,figure1,czerner1,equality1",
		"comma-separated verification targets")
	memBudget := flag.Int64("mem-budget", 0,
		"resident-byte budget for exploration; spill to disk beyond it (0 = all in RAM)")
	spillDir := flag.String("spill-dir", "",
		"directory for explorer spill files (default the system temp directory)")
	telemetry := obsflag.Register(flag.CommandLine)
	flag.Parse()
	if *memBudget < 0 {
		return fmt.Errorf("-mem-budget must be ≥ 0, got %d", *memBudget)
	}
	exOpts := explore.Options{MemBudget: *memBudget, SpillDir: *spillDir}

	stopTelemetry, err := telemetry.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer stopTelemetry()

	for _, target := range strings.Split(*targets, ",") {
		target = strings.TrimSpace(target)
		start := time.Now()
		var err error
		switch target {
		case "majority":
			err = verifyMajority(*maxAgents, exOpts)
		case "unary":
			err = verifyUnary(*maxAgents, exOpts)
		case "binary":
			err = verifyBinary(*maxAgents, exOpts)
		case "remainder":
			err = verifyRemainder(*maxAgents, exOpts)
		case "product":
			err = verifyProduct(*maxAgents, exOpts)
		case "figure1":
			err = verifyFigure1(*maxAgents, exOpts)
		case "czerner1":
			err = verifyCzernerN1(*maxAgents, exOpts)
		case "equality1":
			err = verifyEqualityN1(*maxAgents, exOpts)
		default:
			return fmt.Errorf("unknown target %q", target)
		}
		if err != nil {
			fmt.Printf("%-10s FAILED: %v\n", target, err)
			return fmt.Errorf("verification failed for %s", target)
		}
		fmt.Printf("%-10s verified exactly (all fair runs, all inputs ≤ %d agents) in %v\n",
			target, *maxAgents, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func verifyMajority(maxAgents int64, opts explore.Options) error {
	p, err := baseline.Majority()
	if err != nil {
		return err
	}
	return explore.CheckDecides(p, baseline.MajorityPredicate, 1, maxAgents, runtime.NumCPU(), opts)
}

func verifyUnary(maxAgents int64, opts explore.Options) error {
	for k := int64(1); k <= 4; k++ {
		p, err := baseline.UnaryThreshold(k)
		if err != nil {
			return err
		}
		if err := explore.CheckDecides(p, baseline.ThresholdPredicate(k), 1, maxAgents, runtime.NumCPU(), opts); err != nil {
			return fmt.Errorf("k=%d: %w", k, err)
		}
	}
	return nil
}

func verifyBinary(maxAgents int64, opts explore.Options) error {
	for j := 0; j <= 2; j++ {
		p, err := baseline.BinaryThreshold(j)
		if err != nil {
			return err
		}
		k := int64(1) << uint(j)
		if err := explore.CheckDecides(p, baseline.ThresholdPredicate(k), 1, maxAgents, runtime.NumCPU(), opts); err != nil {
			return fmt.Errorf("j=%d: %w", j, err)
		}
	}
	return nil
}

// verifyMachineThreshold model-checks a compiled program: for every
// placement of every total ≤ maxAgents, all fair runs stabilise to
// pred(total). It runs on the parallel engine so a -mem-budget takes
// effect; results are bit-identical for any worker count and budget.
func verifyMachineThreshold(m *popmachine.Machine, pred func(int64) bool, maxAgents int64, opts explore.Options) error {
	sys := popmachine.System{M: m}
	opts.MaxStates = 8_000_000
	for total := int64(1); total <= maxAgents; total++ {
		want := pred(total)
		var initial []*popmachine.Config
		var buildErr error
		multiset.Enumerate(len(m.Registers), total, func(regs *multiset.Multiset) {
			cfg, err := m.InitialConfig(regs)
			if err != nil {
				buildErr = err
				return
			}
			initial = append(initial, cfg)
		})
		if buildErr != nil {
			return buildErr
		}
		res, err := explore.ExploreParallel[*popmachine.Config](sys, initial, opts)
		if err != nil {
			return fmt.Errorf("total=%d: %w", total, err)
		}
		if !res.StabilisesTo(want) {
			return fmt.Errorf("total=%d: outcomes %v, want all %v", total, res.Outcomes, want)
		}
	}
	return nil
}

func verifyFigure1(maxAgents int64, opts explore.Options) error {
	m, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		return err
	}
	return verifyMachineThreshold(m, func(t int64) bool { return t >= 4 && t < 7 }, maxAgents, opts)
}

func verifyCzernerN1(maxAgents int64, opts explore.Options) error {
	c, err := core.New(1)
	if err != nil {
		return err
	}
	m, err := compile.Compile(c.Program)
	if err != nil {
		return err
	}
	return verifyMachineThreshold(m, func(t int64) bool { return t >= 2 }, maxAgents, opts)
}

func verifyEqualityN1(maxAgents int64, opts explore.Options) error {
	c, err := core.NewEquality(1)
	if err != nil {
		return err
	}
	m, err := compile.Compile(c.Program)
	if err != nil {
		return err
	}
	return verifyMachineThreshold(m, func(t int64) bool { return t == 2 }, maxAgents, opts)
}

func verifyRemainder(maxAgents int64, opts explore.Options) error {
	for _, spec := range []struct{ m, r int64 }{{2, 0}, {3, 1}} {
		p, err := baseline.Remainder(spec.m, spec.r)
		if err != nil {
			return err
		}
		if err := explore.CheckDecides(p, baseline.RemainderPredicate(spec.m, spec.r),
			1, maxAgents, 1, opts); err != nil {
			return fmt.Errorf("x ≡ %d (mod %d): %w", spec.r, spec.m, err)
		}
	}
	return nil
}

func verifyProduct(maxAgents int64, opts explore.Options) error {
	th, err := baseline.UnaryThreshold(3)
	if err != nil {
		return err
	}
	rem, err := baseline.Remainder(2, 0)
	if err != nil {
		return err
	}
	prod, err := protocol.Product("ge3-and-even", th, rem, protocol.OpAnd)
	if err != nil {
		return err
	}
	pred := protocol.ProductPredicate(
		baseline.ThresholdPredicate(3), baseline.RemainderPredicate(2, 0), protocol.OpAnd)
	return explore.CheckDecides(prod, pred, 1, maxAgents, runtime.NumCPU(), opts)
}
