package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

const (
	// exploreWorkers is the engine's worker count, sized for two CPUs.
	exploreWorkers = 2
	// freeWalkK and freeWalkM give the narrow instance: every composition
	// of 25 agents over 6 states, C(30,5) = 142506 configurations.
	freeWalkK, freeWalkM = 6, 25
	// spillBudget is the spill class's MemBudget: small enough that the
	// key log and the frontier spill on every exploration.
	spillBudget = 64 << 10
)

// instance is one exact stable-computation check.
type instance struct {
	name    string
	p       *protocol.Protocol
	initial *multiset.Multiset
	// states is the reachable count the check expects.
	states int
	// want is the verdict; mixed instances have no stable consensus.
	want  protocol.Output
	opts  explore.Options
	class string
}

// verifyBench runs exact bottom-SCC checks. Conversions happen in set-up.
type verifyBench struct {
	wide          []instance
	narrow, spill instance
	classStats    map[string]*exploreStats
	sys           *systemStats
}

// exploreStats accumulates one class's traced explorations.
type exploreStats struct {
	nanos, states      int64
	allocB, allocCount uint64
}

func setupVerify(seed int64) (bench, error) {
	b := &verifyBench{classStats: map[string]*exploreStats{}, sys: &systemStats{}}
	for _, c := range []string{"wide", "narrow", "spill"} {
		b.classStats[c] = &exploreStats{}
	}
	spillDir := filepath.Join(".bench_build", "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	exOpts := explore.Options{Workers: exploreWorkers, MaxStates: 5_000_000}

	// Wide: the shrink-explore artefacts, optimized. Figure 1 decides
	// 4 ≤ x < 7 and runs leaderless with |F| elect agents plus x = 1 input;
	// the n = 1 construction decides x ≥ k(1) and runs in the leader model
	// at x = 1.
	c1, err := core.New(1)
	if err != nil {
		return nil, err
	}
	const x = 1
	fig, err := optimized(popprog.Figure1Program())
	if err != nil {
		return nil, err
	}
	figInit, err := fig.Protocol.InitialConfig(int64(fig.NumPointers) + x)
	if err != nil {
		return nil, err
	}
	cz, err := optimized(c1.Program)
	if err != nil {
		return nil, err
	}
	czInit, err := cz.LeaderConfig(x, 0)
	if err != nil {
		return nil, err
	}
	b.wide = []instance{
		{"figure1", fig.Protocol, figInit, 15960, verdict(4 <= x && x < 7), exOpts, "wide"},
		{"czerner1", cz.Protocol, czInit, 1853, verdict(big.NewInt(x).Cmp(c1.K) >= 0), exOpts, "wide"},
	}

	// Narrow and spill: the free walk, whose single bottom SCC is the whole
	// state space with mixed outputs.
	walk, err := freeWalk(freeWalkK)
	if err != nil {
		return nil, err
	}
	counts := make([]int64, freeWalkK)
	counts[0] = freeWalkM
	walkInit, err := walk.InitialConfig(counts...)
	if err != nil {
		return nil, err
	}
	reach := int(new(big.Int).Binomial(freeWalkM+freeWalkK-1, freeWalkK-1).Int64())
	b.narrow = instance{"freewalk", walk, walkInit, reach, protocol.OutputMixed, exOpts, "narrow"}
	spillOpts := exOpts
	spillOpts.MemBudget = spillBudget
	spillOpts.SpillDir = spillDir
	b.spill = instance{"freewalk", walk, walkInit, reach, protocol.OutputMixed, spillOpts, "spill"}
	return b, nil
}

func verdict(b bool) protocol.Output {
	if b {
		return protocol.OutputTrue
	}
	return protocol.OutputFalse
}

// optimized compiles prog and converts it through the shrink pipeline.
func optimized(prog *popprog.Program) (*convert.Result, error) {
	m, err := compile.Compile(prog)
	if err != nil {
		return nil, err
	}
	r, _, err := convert.Optimize(m)
	return r, err
}

// freeWalk builds the k-state protocol q_i, q_j ↦ q_{i+1 mod k}, q_j whose
// reachable set from any configuration is every composition of the
// population over the k states.
func freeWalk(k int) (*protocol.Protocol, error) {
	pb := protocol.NewBuilder(fmt.Sprintf("freewalk%d", k))
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("q%d", i)
	}
	pb.Input(names...)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			pb.Transition(names[i], names[j], names[(i+1)%k], names[j])
		}
	}
	pb.Accepting(names[0])
	return pb.Build()
}

func (b *verifyBench) pass(p *pass) {
	rng := rand.New(rand.NewSource(p.seed))
	classes := []func(){
		func() {
			p.task("wide", func(sp int) error {
				for _, i := range rng.Perm(len(b.wide)) {
					if err := b.check(p.tr, sp, b.wide[i]); err != nil {
						return err
					}
				}
				return nil
			})
		},
		func() { p.task("narrow", func(sp int) error { return b.check(p.tr, sp, b.narrow) }) },
		func() { p.task("spill", func(sp int) error { return b.check(p.tr, sp, b.spill) }) },
	}
	for _, i := range rng.Perm(len(classes)) {
		classes[i]()
	}
}

// check builds the protocol system, explores it and compares the verdict,
// as explore.CheckConfiguration does. In the traced phase the system is
// wrapped to time successor generation and key encoding.
func (b *verifyBench) check(tr *tracer, sp int, in instance) error {
	ps, _ := call(tr, sp, "protocol.stepper_build", func() (explore.ProtocolSystem, error) {
		return explore.NewProtocolSystem(in.p), nil
	})
	var sys explore.System[*multiset.Multiset] = ps
	var a0, o0 uint64
	if tr != nil {
		sys = timedSystem{ps, b.sys}
		a0, o0 = allocStats()
	}
	t0 := time.Now()
	res, err := call(tr, sp, "explore.ExploreParallel", func() (*explore.Result, error) {
		return explore.ExploreParallel(sys, []*multiset.Multiset{in.initial.Clone()}, in.opts)
	})
	if err != nil {
		return fmt.Errorf("%s: %w", in.name, err)
	}
	if tr != nil {
		a1, o1 := allocStats()
		st := b.classStats[in.class]
		st.nanos += time.Since(t0).Nanoseconds()
		st.states += int64(res.NumStates)
		st.allocB += a1 - a0
		st.allocCount += o1 - o0
	}
	if res.NumStates != in.states {
		return fmt.Errorf("%s: %d reachable states, want %d", in.name, res.NumStates, in.states)
	}
	switch in.want {
	case protocol.OutputMixed:
		if res.NumBottomSCCs != 1 || res.Outcomes[0] != protocol.OutputMixed {
			return fmt.Errorf("%s: bottom SCC outcomes %v, want one mixed", in.name, res.Outcomes)
		}
	default:
		if !res.StabilisesTo(in.want == protocol.OutputTrue) {
			return fmt.Errorf("%s: bottom SCC outcomes %v, want all %v", in.name, res.Outcomes, in.want)
		}
	}
	return nil
}

// systemStats counts the work behind a timedSystem. The engine calls the
// system from all its workers, so the fields are atomic.
type systemStats struct {
	succNanos, succCalls, succOut atomic.Int64
	keyNanos                      atomic.Int64
}

// timedSystem forwards to a ProtocolSystem and times successor generation
// and key encoding and decoding. It implements the same optional
// interfaces as ProtocolSystem, so the engine takes the same path.
type timedSystem struct {
	explore.ProtocolSystem
	st *systemStats
}

var _ explore.KeyDecoderSystem[*multiset.Multiset] = timedSystem{}

func (s timedSystem) Successors(c *multiset.Multiset) []*multiset.Multiset {
	t0 := time.Now()
	out := s.ProtocolSystem.Successors(c)
	s.st.succNanos.Add(time.Since(t0).Nanoseconds())
	s.st.succCalls.Add(1)
	s.st.succOut.Add(int64(len(out)))
	return out
}

func (s timedSystem) AppendKey(dst []byte, c *multiset.Multiset) []byte {
	t0 := time.Now()
	out := s.ProtocolSystem.AppendKey(dst, c)
	s.st.keyNanos.Add(time.Since(t0).Nanoseconds())
	return out
}

func (s timedSystem) DecodeKey(prev *multiset.Multiset, key []byte) (*multiset.Multiset, error) {
	t0 := time.Now()
	out, err := s.ProtocolSystem.DecodeKey(prev, key)
	s.st.keyNanos.Add(time.Since(t0).Nanoseconds())
	return out, err
}

func (b *verifyBench) layers(passes int) map[string]float64 {
	n := float64(passes)
	out := map[string]float64{
		"explore.successors_busy_s":    float64(b.sys.succNanos.Load()) / 1e9 / n,
		"explore.successors_per_state": float64(b.sys.succOut.Load()) / float64(b.sys.succCalls.Load()),
		"explore.key_busy_s":           float64(b.sys.keyNanos.Load()) / 1e9 / n,
	}
	for class, st := range b.classStats {
		out["explore."+class+".explore_s"] = float64(st.nanos) / 1e9 / n
		out["explore."+class+".states_per_s"] = float64(st.states) / (float64(st.nanos) / 1e9)
		out["explore."+class+".alloc_b_per_state"] = float64(st.allocB) / float64(st.states)
		out["explore."+class+".allocs_per_state"] = float64(st.allocCount) / float64(st.states)
	}
	return out
}

func (b *verifyBench) settle(*recorder) {}

func (b *verifyBench) close() {}
