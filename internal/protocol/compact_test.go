package protocol

import (
	"reflect"
	"testing"
)

// compactFixture builds a 3-state protocol with one real transition, one
// exact duplicate of it, a directly silent transition, a swap-silent
// transition (q, r ↦ r, q), and a second real transition.
func compactFixture(t *testing.T) *Protocol {
	t.Helper()
	b := NewBuilder("fixture")
	b.Input("a")
	b.Accepting("c")
	b.Transition("a", "a", "b", "a") // real
	b.Transition("a", "a", "b", "a") // duplicate
	b.Transition("b", "a", "b", "a") // silent (identical)
	b.Transition("b", "a", "a", "b") // silent (swapped)
	b.Transition("b", "b", "c", "c") // real
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompactTransitions(t *testing.T) {
	p := compactFixture(t)
	out, silent, dups, err := CompactTransitions(p)
	if err != nil {
		t.Fatal(err)
	}
	if silent != 2 || dups != 1 {
		t.Fatalf("got silent=%d dups=%d, want 2 and 1", silent, dups)
	}
	if len(out.Transitions) != 2 {
		t.Fatalf("kept %d transitions, want 2", len(out.Transitions))
	}
	if !reflect.DeepEqual(out.States, p.States) || !reflect.DeepEqual(out.Input, p.Input) ||
		!reflect.DeepEqual(out.Accepting, p.Accepting) {
		t.Fatal("compaction changed states, inputs or accepting set")
	}
	// The step relation is unchanged: successors agree on every small
	// configuration over the three states.
	for _, counts := range [][]int64{{2, 0, 0}, {1, 1, 0}, {0, 2, 0}, {2, 1, 1}} {
		c := p.NewConfig()
		for i, n := range counts {
			c.Add(i, n)
		}
		if c.Size() == 0 {
			continue
		}
		before := scanSuccessors(p, c)
		after := scanSuccessors(out, c)
		if len(before) != len(after) {
			t.Fatalf("config %v: successor counts diverge %d vs %d", counts, len(before), len(after))
		}
		seen := map[string]bool{}
		for _, s := range before {
			seen[s.Key()] = true
		}
		for _, s := range after {
			if !seen[s.Key()] {
				t.Fatalf("config %v: compacted protocol reaches unknown successor %v", counts, s)
			}
		}
	}
}

func TestCompactTransitionsNoop(t *testing.T) {
	b := NewBuilder("clean")
	b.Input("a")
	b.Transition("a", "a", "b", "a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, silent, dups, err := CompactTransitions(p)
	if err != nil {
		t.Fatal(err)
	}
	if silent != 0 || dups != 0 || len(out.Transitions) != 1 {
		t.Fatalf("clean protocol was modified: silent=%d dups=%d kept=%d",
			silent, dups, len(out.Transitions))
	}
}
