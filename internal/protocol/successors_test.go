package protocol

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/multiset"
)

// scanSuccessors is the reference successor relation: it scans every
// transition of δ, fires each enabled non-silent one on a clone of c, and
// keeps the distinct results other than c itself, deduplicated by key
// string. Stepper.Successors must return the same set.
func scanSuccessors(p *Protocol, c *multiset.Multiset) []*multiset.Multiset {
	seen := make(map[string]bool)
	var out []*multiset.Multiset
	for _, i := range p.EnabledTransitions(c) {
		next := c.Clone()
		p.Apply(next, p.Transitions[i])
		if next.Equal(c) {
			continue
		}
		k := next.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, next)
	}
	return out
}

// pairIndex, pairEnabled and pairSuccessors are the order oracle: the
// stepper as it was before the displacement index, a map from (q, r) to
// that pair's non-silent transitions in δ order. Enabled transitions come
// out pair by pair over the support in (q asc, r asc) order; successors
// fire them in that order on clones of c and keep the first occurrence of
// each distinct result other than c. Stepper.EnabledTransitions and
// Stepper.Successors must return exactly these sequences:
// sched.TransitionFair draws from the former by position, and the explorer
// assigns state ids in the order of the latter.
type pairIndex map[[2]int][]Transition

func newPairIndex(p *Protocol) pairIndex {
	idx := make(pairIndex)
	for _, t := range p.Transitions {
		if !t.IsSilent() {
			idx[[2]int{t.Q, t.R}] = append(idx[[2]int{t.Q, t.R}], t)
		}
	}
	return idx
}

func pairEnabled(idx pairIndex, c *multiset.Multiset) []Transition {
	support := c.Support()
	var out []Transition
	for _, q := range support {
		for _, r := range support {
			if q == r && c.Count(q) < 2 {
				continue
			}
			out = append(out, idx[[2]int{q, r}]...)
		}
	}
	return out
}

func pairSuccessors(p *Protocol, idx pairIndex, c *multiset.Multiset) []*multiset.Multiset {
	var out []*multiset.Multiset
	seen := make(map[string]bool)
	for _, t := range pairEnabled(idx, c) {
		next := c.Clone()
		p.Apply(next, t)
		if next.Equal(c) || seen[next.Key()] {
			continue
		}
		seen[next.Key()] = true
		out = append(out, next)
	}
	return out
}

// checkStepperOrder fails t unless st agrees with the order oracle idx on
// c: the same enabled transitions and the same successors (counts and
// size), in the same order.
func checkStepperOrder(t *testing.T, st *Stepper, idx pairIndex, c *multiset.Multiset) {
	t.Helper()
	p := st.Protocol()
	if got, want := st.EnabledTransitions(c), pairEnabled(idx, c); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s from %v: EnabledTransitions\n got %v\nwant %v", p.Name, c, got, want)
	}
	got, want := st.Successors(c), pairSuccessors(p, idx, c)
	if len(got) != len(want) {
		t.Fatalf("%s from %v: %d successors, want %d", p.Name, c, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s from %v: successor %d is %v, want %v", p.Name, c, i, got[i], want[i])
		}
	}
}

func successorKeys(succ []*multiset.Multiset) []string {
	keys := make([]string, len(succ))
	for i, s := range succ {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	return keys
}

// TestStepperMatchesScan checks the pair-indexed stepper against the
// transition scan on random protocols (with silent, duplicate and
// self-pair transitions) and random configurations.
func TestStepperMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(4)
		b := NewBuilder("random")
		names := make([]string, k)
		for i := range names {
			names[i] = fmt.Sprintf("q%d", i)
			b.State(names[i])
		}
		b.Input(names[0])
		for i, n := 0, 1+rng.Intn(10); i < n; i++ {
			b.Transition(names[rng.Intn(k)], names[rng.Intn(k)], names[rng.Intn(k)], names[rng.Intn(k)])
		}
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		st := NewStepper(p)
		c := p.NewConfig()
		for i := 0; i < k; i++ {
			c.Add(i, int64(rng.Intn(3)))
		}
		want := successorKeys(scanSuccessors(p, c))
		got := successorKeys(st.Successors(c))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %v from %v: stepper %q, scan %q",
				trial, p.Transitions, c.Counts(), got, want)
		}
	}
}

// randomProtocol builds a k-state protocol of n random transitions; with
// few states it is rich in silent, duplicate and self-pair transitions.
func randomProtocol(t *testing.T, rng *rand.Rand, k, n int) *Protocol {
	t.Helper()
	b := NewBuilder("random")
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("q%d", i)
		b.State(names[i])
	}
	b.Input(names[0])
	for i := 0; i < n; i++ {
		q, r := names[rng.Intn(k)], names[rng.Intn(k)]
		q2, r2 := names[rng.Intn(k)], names[rng.Intn(k)]
		b.Transition(q, r, q2, r2)
		if rng.Intn(4) == 0 {
			b.Transition(q, r, q2, r2) // exact duplicate
		}
		if rng.Intn(4) == 0 {
			b.Transition(q, r, r2, q2) // same displacement, other order
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStepperMatchesPairOrder checks Stepper.EnabledTransitions and
// Stepper.Successors against the order oracle as sequences, not sets.
func TestStepperMatchesPairOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))

	t.Run("random", func(t *testing.T) {
		for trial := 0; trial < 300; trial++ {
			k := 2 + rng.Intn(6)
			p := randomProtocol(t, rng, k, 1+rng.Intn(20))
			st, idx := NewStepper(p), newPairIndex(p)
			c := p.NewConfig()
			for i := 0; i < k; i++ {
				c.Add(i, int64(rng.Intn(4)))
			}
			checkStepperOrder(t, st, idx, c)
		}
	})

	// The free walk q_i, q_j ↦ q_{i+1}, q_j: every partner of q_i gives
	// the same displacement, so most successors are cross-pair duplicates.
	t.Run("freewalk", func(t *testing.T) {
		const k = 5
		b := NewBuilder("freewalk")
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				b.Transition(fmt.Sprintf("q%d", i), fmt.Sprintf("q%d", j), fmt.Sprintf("q%d", (i+1)%k), fmt.Sprintf("q%d", j))
			}
		}
		b.Input("q0")
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		st, idx := NewStepper(p), newPairIndex(p)
		multiset.Enumerate(k, 4, func(c *multiset.Multiset) { checkStepperOrder(t, st, idx, c) })
	})

	// Self-pairs fire only with two agents on the state.
	t.Run("self-pair", func(t *testing.T) {
		b := NewBuilder("self")
		b.Input("a")
		b.Transition("a", "a", "b", "c")
		b.Transition("a", "b", "c", "c")
		b.Transition("c", "c", "a", "a")
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		st, idx := NewStepper(p), newPairIndex(p)
		for _, counts := range [][]int64{{1, 0, 0}, {2, 0, 0}, {1, 1, 1}, {2, 1, 2}, {0, 3, 1}} {
			checkStepperOrder(t, st, idx, multiset.FromCounts(counts))
		}
		if n := len(st.Successors(multiset.FromCounts([]int64{1, 0, 1}))); n != 0 {
			t.Fatalf("a single a and a single c enable nothing, got %d successors", n)
		}
	})

	// More than 64 states spreads partners and the support over several
	// bitset words.
	t.Run("wide", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			k := 65 + rng.Intn(100)
			p := randomProtocol(t, rng, k, 2000+rng.Intn(3000))
			st, idx := NewStepper(p), newPairIndex(p)
			c := p.NewConfig()
			for i := 0; i < k; i++ {
				if rng.Intn(3) > 0 {
					c.Add(i, 1+int64(rng.Intn(2)))
				}
			}
			checkStepperOrder(t, st, idx, c)
		}
	})
}
