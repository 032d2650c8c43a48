package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/popmachine"
	"repro/internal/popprog"
)

// table1States are the protocol state counts of the paper's construction
// for n = 1..6 (Table 1, "this paper" column).
var table1States = []int{1804, 4502, 7272, 10042, 12812, 15582}

// materializeTarget is one program whose full transition table the
// construct workload builds, with the sizes the shrink golden tests pin.
type materializeTarget struct {
	name    string
	machine *popmachine.Machine
	// plainT is |T| of the plain conversion; optQ and optT are |Q| and |T|
	// after the shrink pipeline.
	plainT, optQ, optT int
}

// constructBench is the front end: build, print, parse, compile, count and
// convert. Nothing is explored or simulated.
type constructBench struct {
	targets []materializeTarget

	// Traced-phase accumulators.
	allocBytes  uint64
	transitions int
}

func setupConstruct(seed int64) (bench, error) {
	c1, err := core.New(1)
	if err != nil {
		return nil, err
	}
	b := &constructBench{}
	for _, t := range []struct {
		name               string
		prog               *popprog.Program
		plainT, optQ, optT int
	}{
		{"figure1", popprog.Figure1Program(), 645364, 492, 135940},
		{"czerner1", c1.Program, 2367216, 514, 92648},
	} {
		m, err := compile.Compile(t.prog)
		if err != nil {
			return nil, err
		}
		b.targets = append(b.targets, materializeTarget{t.name, m, t.plainT, t.optQ, t.optT})
	}
	return b, nil
}

func (b *constructBench) pass(p *pass) {
	rng := rand.New(rand.NewSource(p.seed))
	p.task("count", func(sp int) error {
		for _, i := range rng.Perm(len(table1States)) {
			if err := countLevel(p.tr, sp, i+1); err != nil {
				return err
			}
		}
		return nil
	})
	// Each conversion starts from a collected heap and the targets keep
	// their order: otherwise the garbage one conversion leaves behind moves
	// the next one's peak memory from pass to pass.
	p.task("materialize", func(sp int) error {
		for _, t := range b.targets {
			runtime.GC()
			if err := b.materialize(p.tr, sp, t); err != nil {
				return err
			}
		}
		return nil
	})
}

// countLevel runs the counting path for level n: construction, source
// round trip, compilation, state count and the counting shrink pipeline.
func countLevel(tr *tracer, sp, n int) error {
	c, err := call(tr, sp, "core.New", func() (*core.Construction, error) { return core.New(n) })
	if err != nil {
		return err
	}
	src, _ := call(tr, sp, "popprog.WriteSource", func() (string, error) { return c.Program.WriteSource(), nil })
	prog, err := call(tr, sp, "popprog.Parse", func() (*popprog.Program, error) { return popprog.Parse(src) })
	if err != nil {
		return err
	}
	if prog.CanonicalHash() != c.Program.CanonicalHash() {
		return fmt.Errorf("n=%d: parse round trip changed the canonical hash", n)
	}
	m, err := call(tr, sp, "compile.Compile", func() (*popmachine.Machine, error) { return compile.Compile(prog) })
	if err != nil {
		return err
	}
	states, err := call(tr, sp, "convert.CountStates", func() (int, error) {
		_, s, err := convert.CountStates(m)
		return s, err
	})
	if err != nil {
		return err
	}
	if want := table1States[n-1]; states != want {
		return fmt.Errorf("n=%d: %d protocol states, Table 1 says %d", n, states, want)
	}
	rep, err := call(tr, sp, "convert.OptimizeStates", func() (*convert.OptReport, error) {
		_, r, err := convert.OptimizeStates(m)
		return r, err
	})
	if err != nil {
		return err
	}
	if rep.Before.States != states || rep.After.States > states {
		return fmt.Errorf("n=%d: shrink counted %d→%d states from %d", n, rep.Before.States, rep.After.States, states)
	}
	return nil
}

// materialize builds both full transition tables of one target and checks
// their sizes against the pinned goldens.
func (b *constructBench) materialize(tr *tracer, sp int, t materializeTarget) error {
	var a0 uint64
	if tr != nil {
		a0, _ = allocStats()
	}
	plain, err := call(tr, sp, "convert.Convert", func() (*convert.Result, error) { return convert.Convert(t.machine) })
	if err != nil {
		return err
	}
	opt, err := call(tr, sp, "convert.Optimize", func() (*convert.Result, error) {
		r, _, err := convert.Optimize(t.machine)
		return r, err
	})
	if err != nil {
		return err
	}
	if tr != nil {
		a1, _ := allocStats()
		b.allocBytes += a1 - a0
		b.transitions += len(plain.Protocol.Transitions) + len(opt.Protocol.Transitions)
	}
	if got := len(plain.Protocol.States); got != 2*plain.CoreStates {
		return fmt.Errorf("%s: plain conversion has %d states, want 2·|Q*| = %d", t.name, got, 2*plain.CoreStates)
	}
	if got := len(plain.Protocol.Transitions); got != t.plainT {
		return fmt.Errorf("%s: plain conversion has %d transitions, want %d", t.name, got, t.plainT)
	}
	if q, tt := len(opt.Protocol.States), len(opt.Protocol.Transitions); q != t.optQ || tt != t.optT {
		return fmt.Errorf("%s: optimized |Q|=%d |T|=%d, want %d/%d", t.name, q, tt, t.optQ, t.optT)
	}
	return nil
}

func (b *constructBench) layers(passes int) map[string]float64 {
	n := float64(passes)
	return map[string]float64{
		"convert.alloc_mb":    float64(b.allocBytes) / (1 << 20) / n,
		"convert.transitions": float64(b.transitions) / n,
	}
}

func (b *constructBench) settle(*recorder) {}

func (b *constructBench) close() {}
