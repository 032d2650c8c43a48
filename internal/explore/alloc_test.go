package explore

import (
	"testing"

	"repro/internal/multiset"
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

// TestProtocolExploreAllocsPerState guards the protocol hot path: the
// displacement-indexed stepper hands out each configuration's successors
// from one slab (three allocations per expanded state), codec mode keeps
// no decoded states, and the commit pass carves edge lists from one slab
// per block. On the 142,506-state free walk that is about 3.1 allocations
// per state; the per-successor clones, keys and hash maps this replaced
// cost about 76.
func TestProtocolExploreAllocsPerState(t *testing.T) {
	const k = 6
	m, wantStates := int64(25), 142506
	if raceEnabled {
		m, wantStates = 12, 6188 // C(17, 5): the detector is ~10x slower
	}
	p := freeWalkProtocol(t, k)
	sys := NewProtocolSystem(p)
	counts := make([]int64, k)
	counts[0] = m
	c, err := p.InitialConfig(counts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		allocs := testing.AllocsPerRun(1, func() {
			res, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c},
				Options{MaxStates: 1_000_000, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumStates != wantStates {
				t.Fatalf("NumStates = %d, want %d", res.NumStates, wantStates)
			}
		})
		perState := allocs / float64(wantStates)
		t.Logf("workers=%d: %.2f allocs/state", workers, perState)
		if perState > 6 {
			t.Fatalf("workers=%d: ExploreParallel allocates %.2f objects/state (total %.0f), budget 6", workers, perState, allocs)
		}
	}
}
