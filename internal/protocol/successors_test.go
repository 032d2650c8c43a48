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
