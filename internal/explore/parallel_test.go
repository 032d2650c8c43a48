package explore

import (
	"strings"
	"testing"
)

func TestCheckDecidesParallelMatchesSequential(t *testing.T) {
	p := buildMajority(t)
	pred := func(in []int64) bool { return in[0] >= in[1] }
	if err := CheckDecides(p, pred, 1, 7, 4, Options{}); err != nil {
		t.Fatalf("parallel verification failed: %v", err)
	}
	if err := CheckDecides(p, pred, 1, 7, 1, Options{}); err != nil {
		t.Fatalf("single-worker verification failed: %v", err)
	}
}

func TestCheckDecidesParallelReportsFailures(t *testing.T) {
	p := buildMajority(t)
	// An impossible predicate: every size must fail; the error mentions a
	// size and the protocol.
	wrong := func(in []int64) bool { return false }
	err := CheckDecides(p, wrong, 1, 5, 3, Options{})
	if err == nil {
		t.Fatal("parallel checker passed an impossible predicate")
	}
	if !strings.Contains(err.Error(), "majority") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

func TestCheckDecidesParallelRejectsZeroPopulation(t *testing.T) {
	p := buildMajority(t)
	if err := CheckDecides(p, func([]int64) bool { return true }, 0, 3, 2, Options{}); err == nil {
		t.Fatal("accepted minAgents = 0")
	}
}
