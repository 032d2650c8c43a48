// Package explore implements exact verification of stable computation on
// finite transition systems.
//
// The paper defines stable computation (§3) over an arbitrary left-total
// relation →: a fair run stabilises to b if from some point on every
// configuration has output b, and fairness means the set of configurations
// visited infinitely often is closed under →. For a *finite* reachable
// graph this admits a crisp characterisation:
//
//	Every fair run from C stabilises to b
//	    ⟺  every bottom SCC reachable from C has all states with output b.
//
// (A fair run's infinitely-visited set is successor-closed, hence contains a
// bottom SCC B; since B is bottom, no state outside B is reachable from B,
// so the infinitely-visited set is exactly B; stabilisation to b therefore
// requires — and is implied by — B being uniformly b.)
//
// This package explores the reachable graph of any System, computes its
// bottom SCCs with Tarjan's algorithm, and reports the set of stabilisation
// outcomes. It is what turns the paper's lemmas into machine-checked facts
// on small instances: protocols are checked over multiset configuration
// graphs, population machines over register-vector × pointer-valuation
// graphs.
package explore

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/protocol"
)

// ErrStateLimit is returned when exploration exceeds the configured bound.
var ErrStateLimit = errors.New("explore: state limit exceeded")

func errStateLimit(limit int) error {
	return fmt.Errorf("%w (limit %d)", ErrStateLimit, limit)
}

// System is a finite-state transition system with consensus outputs.
// Keys must uniquely identify states.
type System[S any] interface {
	// Key returns a unique identifier for the state.
	Key(s S) string
	// Successors returns the states reachable in one step. Self-loops may
	// be included or omitted; they do not affect bottom-SCC analysis.
	Successors(s S) []S
	// Output returns the consensus output of the state.
	Output(s S) protocol.Output
}

// Options configures exploration.
type Options struct {
	// MaxStates bounds the number of distinct states explored.
	// Zero means the default of 2,000,000.
	MaxStates int
	// Workers is the number of frontier-expansion goroutines. Zero means
	// one worker per available CPU. Results are bit-identical for every
	// worker count, so experiments stay reproducible regardless of the
	// machine they ran on.
	Workers int
	// MemBudget caps the resident bytes of the engine's spillable
	// storage tier (interned key log + frontier buffers). Zero means
	// unbounded: everything stays in RAM and no spill files are created.
	// With a budget set, sealed key-log segments and overflowing frontier
	// levels spill to files under SpillDir; Results remain bit-identical to
	// the all-RAM engine at any budget. The interner's fixed-width tables
	// (~16 bytes per state) are the irreducible in-RAM floor and are not
	// counted against the budget. Requires a system implementing
	// KeyDecoderSystem to also drop decoded states from RAM; for other
	// systems the budget governs only the key-log tier.
	MemBudget int64
	// SpillDir is the directory under which the engine creates its per-run
	// spill directory (removed on every exit path). Empty means the system
	// temporary directory. Only consulted when spilling actually happens.
	SpillDir string
}

func (o Options) maxStates() int {
	if o.MaxStates <= 0 {
		return 2_000_000
	}
	return o.MaxStates
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Result reports the outcome of exploring from a set of initial states.
type Result struct {
	// NumStates is the number of distinct reachable states.
	NumStates int
	// NumBottomSCCs is the number of bottom SCCs of the reachable graph.
	NumBottomSCCs int
	// Outcomes lists, for each bottom SCC, its stabilisation value:
	// OutputTrue/OutputFalse if all its states agree, OutputMixed if the
	// SCC does not represent a stable consensus (a fair run trapped there
	// never stabilises).
	Outcomes []protocol.Output
	// WitnessKeys holds, per bottom SCC, the key of one member state,
	// for diagnostics.
	WitnessKeys []string
}

// StabilisesTo reports whether every fair run from the initial states
// stabilises to b: all bottom SCCs must have outcome b.
func (r *Result) StabilisesTo(b bool) bool {
	want := protocol.OutputFalse
	if b {
		want = protocol.OutputTrue
	}
	if len(r.Outcomes) == 0 {
		return false
	}
	for _, o := range r.Outcomes {
		if o != want {
			return false
		}
	}
	return true
}

// Consensus returns the unique stabilisation value if all bottom SCCs agree
// on OutputTrue or OutputFalse, and OutputMixed otherwise.
func (r *Result) Consensus() protocol.Output {
	if len(r.Outcomes) == 0 {
		return protocol.OutputMixed
	}
	first := r.Outcomes[0]
	if first == protocol.OutputMixed {
		return protocol.OutputMixed
	}
	for _, o := range r.Outcomes[1:] {
		if o != first {
			return protocol.OutputMixed
		}
	}
	return first
}

// analyse runs the shared post-BFS phases: Tarjan's SCC pass over the dense
// edge lists, bottom-component detection, and per-bottom-SCC consensus
// outcomes. The engine feeds it the canonical (BFS-ordered) graph, which is
// what makes its Results bit-identical at every worker count.
func analyse[S any](sys System[S], states []S, edges [][]int) *Result {
	n := len(states)
	comp, isBottom, numComp := bottomComponents(n, edges)

	// Phase 4: compute each bottom SCC's consensus outcome. Witness keys are
	// the only strings materialised here: one per bottom SCC, not per state.
	outcome := make([]protocol.Output, numComp)
	haveOutcome := make([]bool, numComp)
	witness := make([]string, numComp)
	for u := range states {
		c := comp[u]
		if !isBottom[c] {
			continue
		}
		o := sys.Output(states[u])
		if !haveOutcome[c] {
			outcome[c] = o
			haveOutcome[c] = true
			witness[c] = sys.Key(states[u])
			continue
		}
		if outcome[c] != o {
			outcome[c] = protocol.OutputMixed
		}
	}

	return collectResult(n, numComp, isBottom, outcome, witness)
}

// bottomComponents runs the shared structural phases: Tarjan's SCC pass over
// the dense edge lists (phase 2) and bottom-component detection (phase 3). A
// component is bottom iff it has no edge to another component.
func bottomComponents(n int, edges [][]int) (comp []int, isBottom []bool, numComp int) {
	comp = tarjanSCC(n, edges)
	for _, c := range comp {
		if c+1 > numComp {
			numComp = c + 1
		}
	}
	isBottom = make([]bool, numComp)
	for i := range isBottom {
		isBottom[i] = true
	}
	for u, outs := range edges {
		for _, v := range outs {
			if comp[u] != comp[v] {
				isBottom[comp[u]] = false
			}
		}
	}
	return comp, isBottom, numComp
}

// collectResult folds the per-component outcome/witness arrays into a Result,
// keeping only bottom components in component-id order — the same order for
// every engine, which keeps Outcomes and WitnessKeys bit-identical.
func collectResult(n, numComp int, isBottom []bool, outcome []protocol.Output, witness []string) *Result {
	res := &Result{NumStates: n}
	for c := 0; c < numComp; c++ {
		if !isBottom[c] {
			continue
		}
		res.NumBottomSCCs++
		res.Outcomes = append(res.Outcomes, outcome[c])
		res.WitnessKeys = append(res.WitnessKeys, witness[c])
	}
	return res
}

// analyseFromLog is analyse for the out-of-core engine: states were never
// kept in RAM, so phase 4 streams them back from the key log — one
// sequential pass in dense-id order (record k of the log is state k),
// decoding only bottom-SCC members. Witness keys are recomputed via sys.Key
// on the decoded state, exactly as analyse computes them, so Results match
// the in-RAM engines byte for byte.
func analyseFromLog[S any](sys System[S], dec KeyDecoderSystem[S], log *keyLog, n int, edges [][]int) (*Result, error) {
	comp, isBottom, numComp := bottomComponents(n, edges)

	outcome := make([]protocol.Output, numComp)
	haveOutcome := make([]bool, numComp)
	witness := make([]string, numComp)
	var s S
	cur := log.cursor()
	for u := 0; u < n; u++ {
		key, err := cur.next()
		if err != nil {
			return nil, err
		}
		c := comp[u]
		if !isBottom[c] {
			continue
		}
		s, err = dec.DecodeKey(s, key)
		if err != nil {
			return nil, err
		}
		o := sys.Output(s)
		if !haveOutcome[c] {
			outcome[c] = o
			haveOutcome[c] = true
			witness[c] = sys.Key(s)
			continue
		}
		if outcome[c] != o {
			outcome[c] = protocol.OutputMixed
		}
	}
	return collectResult(n, numComp, isBottom, outcome, witness), nil
}

// tarjanSCC computes strongly connected components iteratively and returns
// a component id per node. Components are numbered in reverse topological
// order of discovery (ids are arbitrary for callers).
func tarjanSCC(n int, edges [][]int) []int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	comp := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	nextIndex := 0
	numComp := 0

	type frame struct {
		node int
		edge int
	}
	var callStack []frame

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{node: root})
		index[root] = nextIndex
		low[root] = nextIndex
		nextIndex++
		stack = append(stack, root)
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			u := f.node
			if f.edge < len(edges[u]) {
				v := edges[u][f.edge]
				f.edge++
				if index[v] == unvisited {
					index[v] = nextIndex
					low[v] = nextIndex
					nextIndex++
					stack = append(stack, v)
					onStack[v] = true
					callStack = append(callStack, frame{node: v})
				} else if onStack[v] {
					if index[v] < low[u] {
						low[u] = index[v]
					}
				}
				continue
			}
			// Post-order: pop and propagate lowlink.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].node
				if low[u] < low[parent] {
					low[parent] = low[u]
				}
			}
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = numComp
					if w == u {
						break
					}
				}
				numComp++
			}
		}
	}
	return comp
}
