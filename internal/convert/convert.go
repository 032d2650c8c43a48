// Package convert turns population machines (§7.1) into population
// protocols, implementing the binary-transition construction of §7.3 /
// Appendix B.3:
//
//   - register agents: one protocol state per machine register; the
//     register's value is the number of agents in that state;
//   - pointer agents: one unique agent per pointer, whose state carries the
//     pointer's value plus an execution stage (none/wait/half for IP;
//     none/done/emit/take/test/true/false for register-map pointers;
//     none/done otherwise), plus per-assignment map states X_map^i;
//   - a leader election ⟨elect⟩ along a fixed pointer enumeration ending at
//     IP, which re-initialises the pointer chain whenever duplicates meet
//     (Lemma 15);
//   - instruction gadgets ⟨move⟩, ⟨test⟩, ⟨pointer⟩ exactly as Figure 4 and
//     Appendix B.3;
//   - an output-broadcast wrapper doubling the state space with an opinion
//     bit: agents adopt the OF agent's value on contact, giving stable
//     consensus (Proposition 16).
//
// The converted protocol decides φ'(m) ⟺ m ≥ |F| ∧ φ(m − |F|): |F| agents
// are consumed to store the pointers.
package convert

import (
	"fmt"

	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/protocol"
)

// stage is a pointer state's execution stage (App. B.3).
type stage uint8

const (
	stNone stage = iota
	stWait
	stHalf
	stDone
	stEmit
	stTake
	stTest
	stTrue
	stFalse
	numStages
)

// stageNames are the stages as they appear in state names.
var stageNames = [numStages]string{"none", "wait", "half", "done", "emit", "take", "test", "true", "false"}

// Result packages the converted protocol with its accounting data.
type Result struct {
	// Protocol is the final protocol PP' (with the output broadcast).
	Protocol *protocol.Protocol
	// Core is the intermediate protocol PP without the broadcast wrapper;
	// it executes the machine but does not reach consensus. Exposed for
	// the Figure 4 tests.
	Core *protocol.Protocol
	// NumPointers is |F|, the number of pointer agents (= the agent
	// overhead i in Theorem 5's φ'(x) ⟺ φ(x−i) ∧ x ≥ i).
	NumPointers int
	// CoreStates is |Q*| and must satisfy |Q*| ≤ |Q| + 7·Σ|ℱ_X| + L
	// (Proposition 16). Convert's Protocol has exactly 2·|Q*| states;
	// Optimize's has fewer (the support-closure reduction removes states
	// no run can occupy).
	CoreStates int

	m        *popmachine.Machine
	ptrOrder []int // pointer indices, IP last
	families []int // per Protocol state: owning pointer index, -1 = register
}

// PointerOrder returns the pointer indices in elect-chain order (X_1 …
// X_|F|, with IP last).
func (r *Result) PointerOrder() []int {
	return append([]int(nil), r.ptrOrder...)
}

// Families returns, for every state index of Protocol, the pointer whose
// unique agent owns that state, or -1 for register-agent states. Lemma 15
// says every fair run from c(I) ≥ |F| reaches a configuration with exactly
// one agent per pointer family; the tests verify this via these families.
func (r *Result) Families() []int {
	return append([]int(nil), r.families...)
}

// AgentsPerFamily counts the agents of cfg in each pointer family; index
// len(pointers) holds the register-agent count.
func (r *Result) AgentsPerFamily(cfg *multiset.Multiset) []int64 {
	return r.countFamilies(make([]int64, len(r.m.Pointers)+1), cfg)
}

// countFamilies adds cfg's agents per family to out, whose slot
// len(pointers) takes the register agents, counting straight from cfg.
func (r *Result) countFamilies(out []int64, cfg *multiset.Multiset) []int64 {
	for i, f := range r.families {
		if f < 0 {
			f = len(r.m.Pointers)
		}
		out[f] += cfg.Count(i)
	}
	return out
}

// Elected reports whether cfg has exactly one agent in every pointer family
// (the shape π(C) of Lemma 15). The election experiments call it on every
// step; it counts into a stack buffer, so it does not allocate for machines
// of up to 63 pointers.
func (r *Result) Elected(cfg *multiset.Multiset) bool {
	var buf [64]int64
	counts := buf[:]
	if len(r.m.Pointers) >= len(buf) {
		counts = make([]int64, len(r.m.Pointers)+1)
	}
	for _, c := range r.countFamilies(counts, cfg)[:len(r.m.Pointers)] {
		if c != 1 {
			return false
		}
	}
	return true
}

// CountStates returns the state counts of the conversion without
// materialising transitions: coreStates = |Q*| and protocolStates = 2·|Q*|
// (the broadcast wrapper doubles the states). The ⟨elect⟩ gadget makes the
// transition relation quadratic in the largest pointer family (|Q_IP| =
// 3·L), so full conversion of large machines is expensive; state accounting
// (Table 1, Theorem 5) only needs these counts.
func CountStates(m *popmachine.Machine) (coreStates, protocolStates int, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, fmt.Errorf("convert: %w", err)
	}
	c := &converter{m: m}
	c.planStates()
	return len(c.states), 2 * len(c.states), nil
}

// Convert builds the population protocol for machine m.
func Convert(m *popmachine.Machine) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("convert: %w", err)
	}
	c := &converter{m: m}
	c.planStates()
	core, err := c.buildCore()
	if err != nil {
		return nil, err
	}
	wrapped, err := c.wrapBroadcast(core)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Protocol:    wrapped,
		Core:        core,
		NumPointers: len(m.Pointers),
		CoreStates:  core.NumStates(),
		m:           m,
		ptrOrder:    c.order,
		families:    make([]int, 2*len(c.family)),
	}
	for i, f := range c.family {
		res.families[2*i], res.families[2*i+1] = f, f
	}
	return res, nil
}

// converter addresses the core states by index. planStates fixes the
// canonical order, which is the layout: registers 0..|Q|−1 (register r is
// state r), then one block of |ℱ_X| states per (pointer X in elect order,
// stage of X), then the map states in instruction order.
type converter struct {
	m      *popmachine.Machine
	order  []int     // pointer indices in elect order (IP last)
	stages [][]stage // stages per pointer (indexed by pointer index)

	states  []string         // core state names, by index
	base    [][numStages]int // per pointer and stage: index of its Domain[0] state; -1 = no such stage
	pos     []map[int]int    // per pointer: a value's position in Domain
	mapAt   []int            // per instruction (1-based): its map state, if it has one
	family  []int            // per core state: owning pointer, -1 = register
	ofValue []int            // per core state: the OF pointer's value, -1 = not an OF state
	err     error            // the first state an emitter asked for outside the layout
}

// PointerState names the protocol state of pointer ptr at the given stage
// holding the given value.
func PointerState(m *popmachine.Machine, ptr int, stage string, value int) string {
	return fmt.Sprintf("%s=%d·%s", m.Pointers[ptr].Name, value, stage)
}

// MapState names the intermediate state X_map^i of assignment instruction i
// (1-based).
func MapState(m *popmachine.Machine, ptr, instr int) string {
	return fmt.Sprintf("%s·map%d", m.Pointers[ptr].Name, instr)
}

// InitialPointerState returns the elect-chain state of a freshly
// initialised pointer: value = its machine initial value, stage none.
func InitialPointerState(m *popmachine.Machine, ptr int) string {
	return PointerState(m, ptr, stageNames[stNone], m.Pointers[ptr].Initial)
}

// InputState returns the protocol's unique input state: the first pointer
// of the elect order, initialised (before the broadcast wrapper adds its
// opinion bit).
func (r *Result) InputState() string {
	return InitialPointerState(r.m, r.ptrOrder[0])
}

func (c *converter) planStates() {
	m := c.m
	// Elect order: every pointer except IP, then IP.
	for i := range m.Pointers {
		if i != m.IP {
			c.order = append(c.order, i)
		}
	}
	c.order = append(c.order, m.IP)

	// Stage sets (App. B.3). Only register-map pointers of actual
	// registers need the full move/detect stage set; V_□ is touched by
	// assignments only.
	isVReg := make(map[int]bool, len(m.VReg))
	for _, pi := range m.VReg {
		isVReg[pi] = true
	}
	c.stages = make([][]stage, len(m.Pointers))
	for i := range m.Pointers {
		switch {
		case i == m.IP:
			c.stages[i] = []stage{stNone, stWait, stHalf}
		case isVReg[i]:
			c.stages[i] = []stage{stNone, stDone, stEmit, stTake, stTest, stTrue, stFalse}
		default:
			c.stages[i] = []stage{stNone, stDone}
		}
	}

	add := func(name string, family, ofValue int) {
		c.states = append(c.states, name)
		c.family = append(c.family, family)
		c.ofValue = append(c.ofValue, ofValue)
	}
	for _, r := range m.Registers {
		add(r, -1, -1)
	}
	c.base = make([][numStages]int, len(m.Pointers))
	c.pos = make([]map[int]int, len(m.Pointers))
	for _, pi := range c.order {
		dom := m.Pointers[pi].Domain
		c.pos[pi] = make(map[int]int, len(dom))
		for k, v := range dom {
			c.pos[pi][v] = k
		}
		for st := range c.base[pi] {
			c.base[pi][st] = -1
		}
		for _, st := range c.stages[pi] {
			c.base[pi][st] = len(c.states)
			for _, v := range dom {
				of := -1
				if pi == m.OF {
					of = v
				}
				add(PointerState(m, pi, stageNames[st], v), pi, of)
			}
		}
	}
	c.mapAt = make([]int, len(m.Instrs)+1)
	for idx, in := range m.Instrs {
		if a, ok := in.(popmachine.AssignInstr); ok && a.X != m.IP && a.X != a.Y {
			c.mapAt[idx+1] = len(c.states)
			add(MapState(m, a.X, idx+1), a.X, -1)
		}
	}
}

// ptr returns the index of pointer pi's state at stage st holding value v.
// A state outside the planned layout yields index 0 and records an error,
// which buildCore returns.
func (c *converter) ptr(pi int, st stage, v int) int {
	k, ok := c.pos[pi][v]
	if b := c.base[pi][st]; ok && b >= 0 {
		return b + k
	}
	if c.err == nil {
		c.err = fmt.Errorf("convert: state %s is outside the planned layout", PointerState(c.m, pi, stageNames[st], v))
	}
	return 0
}

// initial returns the index of pointer pi's freshly initialised state.
func (c *converter) initial(pi int) int {
	return c.ptr(pi, stNone, c.m.Pointers[pi].Initial)
}

func (c *converter) buildCore() (*protocol.Protocol, error) {
	m := c.m
	b := protocol.NewBuilder(m.Name + "-protocol")
	for _, s := range c.states {
		b.State(s)
	}
	b.Input(c.states[c.initial(c.order[0])])

	c.emitElect(b)
	for idx, in := range m.Instrs {
		i := idx + 1
		switch it := in.(type) {
		case popmachine.MoveInstr:
			c.emitMove(b, i, it)
		case popmachine.DetectInstr:
			c.emitDetect(b, i, it)
		case popmachine.AssignInstr:
			c.emitAssign(b, i, it)
		}
	}
	if c.err != nil {
		return nil, c.err
	}

	// The core protocol has no meaningful accepting set; consensus comes
	// from the broadcast wrapper. Mark OF-true states accepting so the
	// core can still be inspected.
	for q, v := range c.ofValue {
		b.AcceptingIf(c.states[q], v == popmachine.ValTrue)
	}
	return b.Build()
}

// emitElect implements ⟨elect⟩: duplicates of pointer X_j collapse into an
// initialised X_j plus an initialised X_{j+1}; duplicate IPs release one
// agent into a fixed register state and restart the chain at X_1.
func (c *converter) emitElect(b *protocol.Builder) {
	for oi, pi := range c.order {
		var all []int // the pointer's states: stage×value, then map states
		for q, f := range c.family {
			if f == pi {
				all = append(all, q)
			}
		}
		// IP duplicates: one agent re-seeds the chain, the other becomes a
		// register agent in the fixed register 0.
		q1, r1 := c.initial(c.order[0]), 0
		if oi < len(c.order)-1 {
			q1, r1 = c.initial(pi), c.initial(c.order[oi+1])
		}
		b.Grow(len(all) * len(all))
		for _, s1 := range all {
			for _, s2 := range all {
				b.TransitionIdx(s1, s2, q1, r1)
			}
		}
	}
}

// emitMove implements ⟨move⟩ for instruction i = (x ↦ y).
func (c *converter) emitMove(b *protocol.Builder, i int, in popmachine.MoveInstr) {
	m := c.m
	vx, vy := m.VReg[in.X], m.VReg[in.Y]
	const z = 0 // the fixed intermediate register of App. B.3
	for _, st := range c.stages[vx] {
		for _, v := range m.Pointers[vx].Domain {
			b.TransitionIdx(c.ptr(m.IP, stNone, i), c.ptr(vx, st, v), c.ptr(m.IP, stWait, i), c.ptr(vx, stEmit, v))
		}
	}
	for _, v := range m.Pointers[vx].Domain {
		done := c.ptr(vx, stDone, v)
		b.TransitionIdx(c.ptr(vx, stEmit, v), v, done, z)
		b.TransitionIdx(c.ptr(m.IP, stWait, i), done, c.ptr(m.IP, stHalf, i), c.ptr(vx, stNone, v))
	}
	for _, st := range c.stages[vy] {
		for _, w := range m.Pointers[vy].Domain {
			b.TransitionIdx(c.ptr(m.IP, stHalf, i), c.ptr(vy, st, w), c.ptr(m.IP, stWait, i), c.ptr(vy, stTake, w))
		}
	}
	for _, w := range m.Pointers[vy].Domain {
		done := c.ptr(vy, stDone, w)
		b.TransitionIdx(c.ptr(vy, stTake, w), z, done, w)
		if i < m.NumInstrs() {
			b.TransitionIdx(c.ptr(m.IP, stWait, i), done, c.ptr(m.IP, stNone, i+1), c.ptr(vy, stNone, w))
		}
	}
}

// emitDetect implements ⟨test⟩ for instruction i = (detect x > 0).
func (c *converter) emitDetect(b *protocol.Builder, i int, in popmachine.DetectInstr) {
	m := c.m
	vx := m.VReg[in.X]
	for _, st := range c.stages[vx] {
		for _, v := range m.Pointers[vx].Domain {
			b.TransitionIdx(c.ptr(m.IP, stNone, i), c.ptr(vx, st, v), c.ptr(m.IP, stWait, i), c.ptr(vx, stTest, v))
		}
	}
	for _, v := range m.Pointers[vx].Domain {
		test, isFalse := c.ptr(vx, stTest, v), c.ptr(vx, stFalse, v)
		b.TransitionIdx(test, v, c.ptr(vx, stTrue, v), v)
		for q := range c.states {
			if q != v && q != test {
				b.TransitionIdx(test, q, isFalse, q)
			}
		}
		for _, outcome := range []struct {
			st stage
			cf int
		}{{stTrue, popmachine.ValTrue}, {stFalse, popmachine.ValFalse}} {
			res := c.ptr(vx, outcome.st, v)
			for _, cfStage := range c.stages[m.CF] {
				for _, cv := range m.Pointers[m.CF].Domain {
					b.TransitionIdx(res, c.ptr(m.CF, cfStage, cv), c.ptr(vx, stDone, v), c.ptr(m.CF, stNone, outcome.cf))
				}
			}
		}
		if i < m.NumInstrs() {
			b.TransitionIdx(c.ptr(m.IP, stWait, i), c.ptr(vx, stDone, v), c.ptr(m.IP, stNone, i+1), c.ptr(vx, stNone, v))
		}
	}
}

// emitAssign implements ⟨pointer⟩ for instruction i = (X := f(Y)).
func (c *converter) emitAssign(b *protocol.Builder, i int, in popmachine.AssignInstr) {
	m := c.m
	switch {
	case in.X == m.IP:
		// IP := f(Y): a single two-agent exchange.
		for _, st := range c.stages[in.Y] {
			for _, v := range m.Pointers[in.Y].Domain {
				b.TransitionIdx(c.ptr(m.IP, stNone, i), c.ptr(in.Y, st, v), c.ptr(m.IP, stNone, in.F[v]), c.ptr(in.Y, stNone, v))
			}
		}
	case in.X == in.Y:
		if i >= m.NumInstrs() {
			return // machine hangs at i = L
		}
		for _, st := range c.stages[in.Y] {
			for _, v := range m.Pointers[in.Y].Domain {
				b.TransitionIdx(c.ptr(m.IP, stNone, i), c.ptr(in.Y, st, v), c.ptr(m.IP, stNone, i+1), c.ptr(in.Y, stNone, in.F[v]))
			}
		}
	default:
		if i >= m.NumInstrs() {
			return // the advancing transitions below would be ill-defined
		}
		mapState := c.mapAt[i]
		for _, st := range c.stages[in.X] {
			for _, v := range m.Pointers[in.X].Domain {
				b.TransitionIdx(c.ptr(m.IP, stNone, i), c.ptr(in.X, st, v), c.ptr(m.IP, stWait, i), mapState)
			}
		}
		for _, st := range c.stages[in.Y] {
			for _, w := range m.Pointers[in.Y].Domain {
				b.TransitionIdx(mapState, c.ptr(in.Y, st, w), c.ptr(in.X, stDone, in.F[w]), c.ptr(in.Y, stNone, w))
			}
		}
		for _, v := range m.Pointers[in.X].Domain {
			b.TransitionIdx(c.ptr(m.IP, stWait, i), c.ptr(in.X, stDone, v), c.ptr(m.IP, stNone, i+1), c.ptr(in.X, stNone, v))
		}
	}
}

// opinion suffixes for the broadcast wrapper.
func withOpinion(state string, b bool) string {
	if b {
		return state + "|+"
	}
	return state + "|-"
}

// wrapBroadcast implements the standard output broadcast: every state is
// doubled with an opinion bit; transitions whose post-states include an
// OF-pointer state with value b force both participants' opinions to b;
// all other transitions carry opinions through; and meeting the OF agent
// (an identity interaction otherwise) converts the other agent's opinion.
// Core state i becomes state 2i+o for opinion o (0 = false, 1 = true).
func (c *converter) wrapBroadcast(core *protocol.Protocol) (*protocol.Protocol, error) {
	b := protocol.NewBuilder(core.Name + "-consensus")
	for _, s := range c.states {
		b.AcceptingIf(withOpinion(s, false), false)
		b.AcceptingIf(withOpinion(s, true), true)
	}
	// I' = I × {false}: the initialised first pointer of the elect chain,
	// with opinion false.
	b.Input(withOpinion(core.States[core.Input[0]], false))
	numOF := len(c.stages[c.m.OF]) * len(c.m.Pointers[c.m.OF].Domain)
	b.Grow(4*len(core.Transitions) + 4*numOF*(len(c.states)-1))

	// OF's domain is {ValFalse, ValTrue} = {0, 1} (Validate), so an OF
	// value is the opinion bit it broadcasts.
	for _, t := range core.Transitions {
		forced := c.ofValue[t.Q2]
		if forced < 0 {
			forced = c.ofValue[t.R2]
		}
		for o1 := 0; o1 < 2; o1++ {
			for o2 := 0; o2 < 2; o2++ {
				p1, p2 := o1, o2
				if forced >= 0 {
					p1, p2 = forced, forced
				}
				b.TransitionIdx(2*t.Q+o1, 2*t.R+o2, 2*t.Q2+p1, 2*t.R2+p2)
			}
		}
	}
	// Identity interactions with the OF agent broadcast its value.
	for of, val := range c.ofValue {
		if val < 0 {
			continue
		}
		for q := range c.states {
			if q == of {
				continue
			}
			for o1 := 0; o1 < 2; o1++ {
				for o2 := 0; o2 < 2; o2++ {
					b.TransitionIdx(2*q+o1, 2*of+o2, 2*q+val, 2*of+val)
				}
			}
		}
	}
	return b.Build()
}
