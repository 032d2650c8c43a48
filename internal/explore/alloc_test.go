package explore

import (
	"testing"
)

// TestExploreAllocsPerState is the allocation regression guard for the
// engine's dense-id bookkeeping: ids are dense, so expansion bookkeeping
// must cost O(1) amortised slice appends, not per-state map inserts. The
// budget is per explored state, with headroom for the per-state key and
// frontier/edge growth; reintroducing a map (or any per-state heap
// structure) on the BFS hot path trips it.
func TestExploreAllocsPerState(t *testing.T) {
	const n = 512
	g := ringAfterPath{depth: n}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := ExploreParallel[int](g, []int{0}, Options{MaxStates: n + 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumStates != n+3 {
			t.Fatalf("NumStates = %d", res.NumStates)
		}
	})
	perState := allocs / float64(n)
	if perState > 8 {
		t.Fatalf("ExploreParallel allocates %.1f objects/state (total %.0f), budget 8", perState, allocs)
	}
}

// TestParallelExploreAllocsPerState holds the engine to the same standard:
// binary interning must not allocate a string per visited state. The chain
// shape keeps every frontier at width 1, so this measures the engine's
// per-state floor, not goroutine machinery.
func TestParallelExploreAllocsPerState(t *testing.T) {
	const n = 512
	g := ringAfterPath{depth: n}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := ExploreParallel[int](g, []int{0}, Options{MaxStates: n + 10, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumStates != n+3 {
			t.Fatalf("NumStates = %d", res.NumStates)
		}
	})
	perState := allocs / float64(n)
	if perState > 10 {
		t.Fatalf("ExploreParallel allocates %.1f objects/state (total %.0f), budget 10", perState, allocs)
	}
}
