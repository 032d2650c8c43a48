package protocol_test

import (
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// TestStepperMatchesPairOrderFigure1 runs the order-oracle check of
// TestStepperMatchesPairOrder on the optimized Figure 1 protocol (492
// states, 135,940 transitions): random sparse configurations, and the
// configurations a random walk from the leaderless initial configuration
// visits.
func TestStepperMatchesPairOrderFigure1(t *testing.T) {
	m, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := convert.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Protocol
	st, idx := protocol.NewStepper(p), protocol.NewPairIndex(p)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		c := p.NewConfig()
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			c.Add(rng.Intn(p.NumStates()), 1+int64(rng.Intn(2)))
		}
		protocol.CheckStepperOrder(t, st, idx, c)
	}
	c, err := p.InitialConfig(int64(r.NumPointers) + 2)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 500; step++ {
		protocol.CheckStepperOrder(t, st, idx, c)
		succ := st.Successors(c)
		if len(succ) == 0 {
			break
		}
		c = succ[rng.Intn(len(succ))]
	}
}
