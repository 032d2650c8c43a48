package protocol_test

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/multiset"
	"repro/internal/protocol"
)

// benchConfigs returns up to limit configurations reachable from c, in BFS
// order, so the benchmark measures successor generation on the
// configurations an exploration actually visits.
func benchConfigs(st *protocol.Stepper, c *multiset.Multiset, limit int) []*multiset.Multiset {
	seen := map[string]bool{c.Key(): true}
	out := []*multiset.Multiset{c}
	for i := 0; i < len(out) && len(out) < limit; i++ {
		for _, next := range st.Successors(out[i]) {
			if k := next.Key(); !seen[k] && len(out) < limit {
				seen[k] = true
				out = append(out, next)
			}
		}
	}
	return out
}

func benchFreeWalk(b *testing.B) (*protocol.Protocol, *multiset.Multiset) {
	const k, m = 6, 25
	pb := protocol.NewBuilder("freewalk")
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
	p, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int64, k)
	counts[0] = m
	c, err := p.InitialConfig(counts...)
	if err != nil {
		b.Fatal(err)
	}
	return p, c
}

// benchCzerner1 is the optimized n = 1 construction in the leader model at
// x = 1: 514 states, 92,648 transitions, a handful of occupied states.
func benchCzerner1(b *testing.B) (*protocol.Protocol, *multiset.Multiset) {
	c1, err := core.New(1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := compile.Compile(c1.Program)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := convert.Optimize(m)
	if err != nil {
		b.Fatal(err)
	}
	c, err := r.LeaderConfig(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return r.Protocol, c
}

var benchSink []*multiset.Multiset

// BenchmarkStepperSuccessors times Stepper.Successors over the first 4096
// configurations a BFS reaches: the free walk (6 states, every pair
// enabled) and the optimized czerner n = 1 protocol (wide δ, narrow
// support). It reports time, allocations and successors per expanded
// configuration.
func BenchmarkStepperSuccessors(b *testing.B) {
	for _, bc := range []struct {
		name  string
		build func(*testing.B) (*protocol.Protocol, *multiset.Multiset)
	}{{"freewalk", benchFreeWalk}, {"czerner1", benchCzerner1}} {
		b.Run(bc.name, func(b *testing.B) {
			p, c := bc.build(b)
			st := protocol.NewStepper(p)
			configs := benchConfigs(st, c, 4096)
			succ := 0
			for _, cfg := range configs {
				succ += len(st.Successors(cfg))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, cfg := range configs {
					benchSink = st.Successors(cfg)
				}
			}
			b.StopTimer()
			perState := float64(b.N) * float64(len(configs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perState, "ns/state")
			b.ReportMetric(float64(succ)/float64(len(configs)), "succ/state")
			b.ReportMetric(float64(testing.AllocsPerRun(1, func() {
				for _, cfg := range configs {
					benchSink = st.Successors(cfg)
				}
			}))/float64(len(configs)), "allocs/state")
		})
	}
}
