package convert

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// nameConverter is the name-addressed §7.3 emitter the index-addressed
// converter replaced, kept as a test oracle: every state is a formatted
// name and every transition goes through protocol.Builder's name lookup.
// The differential test compares its output with Convert field by field.
type nameConverter struct {
	m      *popmachine.Machine
	order  []int
	stages [][]string

	states   []string
	isOF     map[string]bool
	ofValue  map[string]int
	family   map[string]int
	regState []string
}

// oracleConvert runs the name-addressed conversion of m and returns the
// core protocol, the broadcast-wrapped protocol and the wrapped protocol's
// families.
func oracleConvert(m *popmachine.Machine) (core, wrapped *protocol.Protocol, families []int, err error) {
	c := &nameConverter{m: m}
	c.planStates()
	if core, err = c.buildCore(); err != nil {
		return nil, nil, nil, err
	}
	if wrapped, err = c.wrapBroadcast(core); err != nil {
		return nil, nil, nil, err
	}
	families = make([]int, wrapped.NumStates())
	for i, name := range wrapped.States {
		coreName := strings.TrimSuffix(strings.TrimSuffix(name, "|+"), "|-")
		if f, ok := c.family[coreName]; ok {
			families[i] = f
		} else {
			families[i] = -1
		}
	}
	return core, wrapped, families, nil
}

func (c *nameConverter) planStates() {
	m := c.m
	for i := range m.Pointers {
		if i != m.IP {
			c.order = append(c.order, i)
		}
	}
	c.order = append(c.order, m.IP)

	isVReg := make(map[int]bool, len(m.VReg))
	for _, pi := range m.VReg {
		isVReg[pi] = true
	}
	c.stages = make([][]string, len(m.Pointers))
	for i := range m.Pointers {
		switch {
		case i == m.IP:
			c.stages[i] = []string{"none", "wait", "half"}
		case isVReg[i]:
			c.stages[i] = []string{"none", "done", "emit", "take", "test", "true", "false"}
		default:
			c.stages[i] = []string{"none", "done"}
		}
	}

	c.isOF = make(map[string]bool)
	c.ofValue = make(map[string]int)
	c.family = make(map[string]int)
	c.regState = append([]string(nil), m.Registers...)
	c.states = append(c.states, c.regState...)
	for _, pi := range c.order {
		for _, stage := range c.stages[pi] {
			for _, v := range m.Pointers[pi].Domain {
				s := PointerState(m, pi, stage, v)
				c.states = append(c.states, s)
				c.family[s] = pi
				if pi == m.OF {
					c.isOF[s] = true
					c.ofValue[s] = v
				}
			}
		}
	}
	for idx, in := range m.Instrs {
		if a, ok := in.(popmachine.AssignInstr); ok {
			if a.X != m.IP && a.X != a.Y {
				s := MapState(m, a.X, idx+1)
				c.states = append(c.states, s)
				c.family[s] = a.X
			}
		}
	}
}

func (c *nameConverter) ofStates() []string {
	var out []string
	of := c.m.OF
	for _, stage := range c.stages[of] {
		for _, v := range c.m.Pointers[of].Domain {
			out = append(out, PointerState(c.m, of, stage, v))
		}
	}
	return out
}

func (c *nameConverter) pointerStates(pi int) []string {
	var out []string
	for _, stage := range c.stages[pi] {
		for _, v := range c.m.Pointers[pi].Domain {
			out = append(out, PointerState(c.m, pi, stage, v))
		}
	}
	for idx, in := range c.m.Instrs {
		if a, ok := in.(popmachine.AssignInstr); ok && a.X == pi && a.X != c.m.IP && a.X != a.Y {
			out = append(out, MapState(c.m, pi, idx+1))
		}
	}
	return out
}

func (c *nameConverter) buildCore() (*protocol.Protocol, error) {
	m := c.m
	b := protocol.NewBuilder(m.Name + "-protocol")
	for _, s := range c.states {
		b.State(s)
	}
	b.Input(InitialPointerState(m, c.order[0]))

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
	for _, s := range c.ofStates() {
		b.AcceptingIf(s, c.ofValue[s] == popmachine.ValTrue)
	}
	return b.Build()
}

func (c *nameConverter) emitElect(b *protocol.Builder) {
	m := c.m
	for oi := 0; oi < len(c.order); oi++ {
		pi := c.order[oi]
		all := c.pointerStates(pi)
		var q1, r1 string
		if oi < len(c.order)-1 {
			q1 = InitialPointerState(m, pi)
			r1 = InitialPointerState(m, c.order[oi+1])
		} else {
			q1 = InitialPointerState(m, c.order[0])
			r1 = c.regState[0]
		}
		for _, s1 := range all {
			for _, s2 := range all {
				b.Transition(s1, s2, q1, r1)
			}
		}
	}
}

func (c *nameConverter) ipState(stage string, i int) string {
	return PointerState(c.m, c.m.IP, stage, i)
}

func (c *nameConverter) emitMove(b *protocol.Builder, i int, in popmachine.MoveInstr) {
	m := c.m
	vx, vy := m.VReg[in.X], m.VReg[in.Y]
	z := c.regState[0]
	for _, stage := range c.stages[vx] {
		for _, v := range m.Pointers[vx].Domain {
			from := PointerState(m, vx, stage, v)
			b.Transition(c.ipState("none", i), from, c.ipState("wait", i), PointerState(m, vx, "emit", v))
		}
	}
	for _, v := range m.Pointers[vx].Domain {
		emit := PointerState(m, vx, "emit", v)
		done := PointerState(m, vx, "done", v)
		b.Transition(emit, c.regState[v], done, z)
		b.Transition(c.ipState("wait", i), done, c.ipState("half", i), PointerState(m, vx, "none", v))
	}
	for _, stage := range c.stages[vy] {
		for _, w := range m.Pointers[vy].Domain {
			from := PointerState(m, vy, stage, w)
			b.Transition(c.ipState("half", i), from, c.ipState("wait", i), PointerState(m, vy, "take", w))
		}
	}
	for _, w := range m.Pointers[vy].Domain {
		take := PointerState(m, vy, "take", w)
		done := PointerState(m, vy, "done", w)
		b.Transition(take, z, done, c.regState[w])
		if i < m.NumInstrs() {
			b.Transition(c.ipState("wait", i), done, c.ipState("none", i+1), PointerState(m, vy, "none", w))
		}
	}
}

func (c *nameConverter) emitDetect(b *protocol.Builder, i int, in popmachine.DetectInstr) {
	m := c.m
	vx := m.VReg[in.X]
	for _, stage := range c.stages[vx] {
		for _, v := range m.Pointers[vx].Domain {
			from := PointerState(m, vx, stage, v)
			b.Transition(c.ipState("none", i), from, c.ipState("wait", i), PointerState(m, vx, "test", v))
		}
	}
	for _, v := range m.Pointers[vx].Domain {
		test := PointerState(m, vx, "test", v)
		b.Transition(test, c.regState[v], PointerState(m, vx, "true", v), c.regState[v])
		for _, q := range c.states {
			if q != c.regState[v] && q != test {
				b.Transition(test, q, PointerState(m, vx, "false", v), q)
			}
		}
		for _, outcome := range []struct {
			stage string
			cf    int
		}{{"true", popmachine.ValTrue}, {"false", popmachine.ValFalse}} {
			res := PointerState(m, vx, outcome.stage, v)
			for _, cfStage := range c.stages[m.CF] {
				for _, cv := range m.Pointers[m.CF].Domain {
					b.Transition(res, PointerState(m, m.CF, cfStage, cv),
						PointerState(m, vx, "done", v), PointerState(m, m.CF, "none", outcome.cf))
				}
			}
		}
		if i < m.NumInstrs() {
			b.Transition(c.ipState("wait", i), PointerState(m, vx, "done", v),
				c.ipState("none", i+1), PointerState(m, vx, "none", v))
		}
	}
}

func (c *nameConverter) emitAssign(b *protocol.Builder, i int, in popmachine.AssignInstr) {
	m := c.m
	switch {
	case in.X == m.IP:
		for _, stage := range c.stages[in.Y] {
			for _, v := range m.Pointers[in.Y].Domain {
				b.Transition(c.ipState("none", i), PointerState(m, in.Y, stage, v),
					c.ipState("none", in.F[v]), PointerState(m, in.Y, "none", v))
			}
		}
	case in.X == in.Y:
		if i >= m.NumInstrs() {
			return
		}
		for _, stage := range c.stages[in.Y] {
			for _, v := range m.Pointers[in.Y].Domain {
				b.Transition(c.ipState("none", i), PointerState(m, in.Y, stage, v),
					c.ipState("none", i+1), PointerState(m, in.Y, "none", in.F[v]))
			}
		}
	default:
		if i >= m.NumInstrs() {
			return
		}
		mapState := MapState(m, in.X, i)
		for _, stage := range c.stages[in.X] {
			for _, v := range m.Pointers[in.X].Domain {
				b.Transition(c.ipState("none", i), PointerState(m, in.X, stage, v),
					c.ipState("wait", i), mapState)
			}
		}
		for _, stage := range c.stages[in.Y] {
			for _, w := range m.Pointers[in.Y].Domain {
				b.Transition(mapState, PointerState(m, in.Y, stage, w),
					PointerState(m, in.X, "done", in.F[w]), PointerState(m, in.Y, "none", w))
			}
		}
		for _, v := range m.Pointers[in.X].Domain {
			b.Transition(c.ipState("wait", i), PointerState(m, in.X, "done", v),
				c.ipState("none", i+1), PointerState(m, in.X, "none", v))
		}
	}
}

func (c *nameConverter) wrapBroadcast(core *protocol.Protocol) (*protocol.Protocol, error) {
	b := protocol.NewBuilder(core.Name + "-consensus")
	bools := []bool{false, true}
	for _, s := range c.states {
		for _, op := range bools {
			b.AcceptingIf(withOpinion(s, op), op)
		}
	}
	b.Input(withOpinion(InitialPointerState(c.m, c.order[0]), false))

	for _, t := range core.Transitions {
		q1, r1 := core.States[t.Q], core.States[t.R]
		q2, r2 := core.States[t.Q2], core.States[t.R2]
		forced, forcedVal := false, false
		if c.isOF[q2] {
			forced, forcedVal = true, c.ofValue[q2] == popmachine.ValTrue
		} else if c.isOF[r2] {
			forced, forcedVal = true, c.ofValue[r2] == popmachine.ValTrue
		}
		for _, o1 := range bools {
			for _, o2 := range bools {
				if forced {
					b.Transition(withOpinion(q1, o1), withOpinion(r1, o2),
						withOpinion(q2, forcedVal), withOpinion(r2, forcedVal))
				} else {
					b.Transition(withOpinion(q1, o1), withOpinion(r1, o2),
						withOpinion(q2, o1), withOpinion(r2, o2))
				}
			}
		}
	}
	for _, ofState := range c.ofStates() {
		val := c.ofValue[ofState] == popmachine.ValTrue
		for _, q := range c.states {
			if q == ofState {
				continue
			}
			for _, o1 := range bools {
				for _, o2 := range bools {
					b.Transition(withOpinion(q, o1), withOpinion(ofState, o2),
						withOpinion(q, val), withOpinion(ofState, val))
				}
			}
		}
	}
	return b.Build()
}

// differentialMachines returns every machine the convert tests build, plain
// and after the machine-level shrink passes.
func differentialMachines(t *testing.T) []*popmachine.Machine {
	t.Helper()
	c1, err := core.New(1)
	if err != nil {
		t.Fatal(err)
	}
	plain := []*popmachine.Machine{figure4Machine(t), compiledFigure1(t)}
	for _, prog := range []*popprog.Program{geOneProgram(), geTwoProgram(), c1.Program} {
		m, err := compile.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		plain = append(plain, m)
	}
	out := plain
	for _, m := range plain {
		opt, _, err := compile.OptimizeMachine(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, opt)
	}
	return out
}

// TestConvertMatchesNameOracle converts every test machine with both the
// index-addressed converter and the name-addressed oracle and compares the
// core and wrapped protocols and the families field by field.
func TestConvertMatchesNameOracle(t *testing.T) {
	for _, m := range differentialMachines(t) {
		res, err := Convert(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		core, wrapped, families, err := oracleConvert(m)
		if err != nil {
			t.Fatalf("%s: oracle: %v", m.Name, err)
		}
		for _, pair := range []struct {
			what      string
			got, want *protocol.Protocol
		}{{"core", res.Core, core}, {"protocol", res.Protocol, wrapped}} {
			got, want := pair.got, pair.want
			switch {
			case got.Name != want.Name:
				t.Errorf("%s %s: name %q, oracle %q", m.Name, pair.what, got.Name, want.Name)
			case !slices.Equal(got.States, want.States):
				t.Errorf("%s %s: states differ from the oracle", m.Name, pair.what)
			case !slices.Equal(got.Transitions, want.Transitions):
				t.Errorf("%s %s: %d transitions differ from the oracle's %d",
					m.Name, pair.what, len(got.Transitions), len(want.Transitions))
			case !slices.Equal(got.Input, want.Input):
				t.Errorf("%s %s: input %v, oracle %v", m.Name, pair.what, got.Input, want.Input)
			case !slices.Equal(got.Accepting, want.Accepting):
				t.Errorf("%s %s: accepting set differs from the oracle", m.Name, pair.what)
			}
		}
		if !slices.Equal(res.Families(), families) {
			t.Errorf("%s: families differ from the oracle", m.Name)
		}
		if coreStates, _, err := CountStates(m); err != nil || coreStates != res.CoreStates {
			t.Errorf("%s: CountStates = %d (%v), Convert has |Q*| = %d", m.Name, coreStates, err, res.CoreStates)
		}
	}
}

// TestOutOfLayoutEmitFails hand-builds an emit whose target lies outside
// the planned layout (IP := 99 in a machine of five instructions); the
// converter must refuse it rather than create the state.
func TestOutOfLayoutEmitFails(t *testing.T) {
	m := figure4Machine(t)
	c := &converter{m: m}
	c.planStates()
	b := protocol.NewBuilder("out-of-layout")
	c.emitAssign(b, 1, popmachine.AssignInstr{X: m.IP, Y: m.CF,
		F: map[int]int{popmachine.ValFalse: 99, popmachine.ValTrue: 99}})
	if c.err == nil || !strings.Contains(c.err.Error(), "IP=99·none") {
		t.Fatalf("out-of-layout emit: err = %v, want one naming IP=99·none", c.err)
	}
	if _, err := c.buildCore(); err == nil {
		t.Fatal("buildCore succeeded after an out-of-layout emit")
	}
	c = &converter{m: m}
	c.planStates()
	if c.ptr(m.IP, stEmit, 1); c.err == nil {
		t.Fatal("IP has no emit stage, but ptr accepted it")
	}
}
