package mardsl

import "fmt"

// A compiled machine keeps every value it reads in one []int64 frame: the
// builtins, then the registers, the program's constants, and the scratch
// slots of its largest guard condition or action. Compile lowers each
// clause once to one flat instruction list over frame slots: each guard
// condition computes its two sides and tests them, then each action
// computes its operands and acts. A leaf operand (register, builtin or
// literal) is just its slot and costs no instruction, so the guard
// "received < n" is a single test of two slots.
const (
	slotN int32 = iota
	slotSelf
	slotReceived
	slotMsg
	slotTarget
	numBuiltins
)

// tempSlot marks a scratch slot while Compile lowers the program; the
// scratch area's base is known only once every constant has its slot, and
// Compile then relocates the marked slots onto it.
const tempSlot int32 = 1 << 30

// opcode is one instruction kind.
type opcode uint8

// The instruction set. The arithmetic instructions, in ExprOp order,
// compute frame[dst] = frame[a] op frame[b] (the unary ones ignore b). The
// tests, in CmpOp order, end the clause as unmatched unless
// frame[a] op frame[b]. The actions, in ActionKind order, do what their
// action does with operands frame[a] and frame[b].
const (
	opAdd opcode = iota
	opSub
	opMul
	opMod // Euclidean; 0 when frame[b] ≤ 0
	opNeg
	opRand   // uniform draw from [0, frame[a]); 0 when frame[a] ≤ 0
	opLeader // ring.LeaderFromSum(frame[a], n)
	opSumfor // ring.SumForLeader(frame[a], n)

	opEq
	opNe
	opLt
	opLe
	opGt
	opGe

	opSet // frame[dst] = frame[a]
	opSend
	opPush
	opReplay
	opGoto // state = dst
	opTerminate
	opAbort
)

// instr is one instruction.
type instr struct {
	op        opcode
	dst, a, b int32
}

// cState is one compiled state: its wake-up clause (start state only) and
// its receive clauses in source order.
type cState struct {
	init []instr
	recv [][]instr
}

// Program is a compiled spec, ready to instantiate machines. Programs are
// immutable after Compile and safe for concurrent use: every machine owns
// its own mutable state.
type Program struct {
	// Name is the spec slug.
	Name string
	// Kind is the spec role.
	Kind Kind
	// Use names the protocol an adversary program deviates from.
	Use string
	// Place lists an adversary's coalition positions ([2] by default).
	Place []int
	// Defaults are the spec's registration defaults.
	Defaults Defaults
	// Uniform marks a protocol whose honest outcome is uniform.
	Uniform bool

	// frame is a machine's frame at wake-up, but for the builtins n, self
	// and target: zero registers, the constants, zero scratch.
	frame  []int64
	states []cState
}

// Compile validates the spec and lowers it to a Program.
func Compile(s *Spec) (*Program, error) {
	if err := Validate(s); err != nil {
		return nil, err
	}
	p := &Program{
		Name:     s.Name,
		Kind:     s.Kind,
		Use:      s.Use,
		Place:    append([]int(nil), s.Place...),
		Defaults: s.Defaults,
		Uniform:  s.Uniform,
	}
	if p.Kind == KindAdversary && len(p.Place) == 0 {
		p.Place = []int{2}
	}
	lw := &lowerer{
		regs:   map[string]int32{},
		states: map[string]int{},
		consts: map[int64]int32{},
		frame:  make([]int64, int(numBuiltins)+len(s.Regs)),
	}
	for i, r := range s.Regs {
		lw.regs[r] = numBuiltins + int32(i)
	}
	for i, st := range s.States {
		lw.states[st.Name] = i
	}
	p.states = make([]cState, len(s.States))
	for i, st := range s.States {
		cs := &p.states[i]
		var err error
		if st.Init != nil {
			if cs.init, err = lw.clause(st.Init); err != nil {
				return nil, err
			}
		}
		cs.recv = make([][]instr, len(st.Recv))
		for j, rc := range st.Recv {
			if cs.recv[j], err = lw.clause(rc); err != nil {
				return nil, err
			}
		}
	}
	base := int32(len(lw.frame))
	p.frame = append(lw.frame, make([]int64, lw.maxTemps)...)
	for i := range p.states {
		cs := &p.states[i]
		relocate(cs.init, base)
		for _, code := range cs.recv {
			relocate(code, base)
		}
	}
	return p, nil
}

// Load parses, validates, and compiles source text in one step.
func Load(src string) (*Program, error) {
	spec, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(spec)
}

// lowerer carries the slot assignment through one Compile.
type lowerer struct {
	regs   map[string]int32 // register name → frame slot
	states map[string]int   // state name → index
	consts map[int64]int32  // literal → frame slot
	frame  []int64          // the wake-up frame so far: builtins, registers, constants
	// temps counts the scratch slots of the condition or action being
	// lowered; maxTemps is the largest such count, the scratch area size.
	temps, maxTemps int32
}

// clause lowers one clause to its instruction list.
func (lw *lowerer) clause(cl *Clause) ([]instr, error) {
	var code []instr
	for _, cond := range cl.Guard {
		lw.temps = 0
		l, err := lw.expr(cond.Left, &code, cl.Line)
		if err != nil {
			return nil, err
		}
		r, err := lw.expr(cond.Right, &code, cl.Line)
		if err != nil {
			return nil, err
		}
		code = append(code, instr{op: opEq + opcode(cond.Op), a: l, b: r})
	}
	for _, ac := range cl.Actions {
		lw.temps = 0
		if ac.Kind == ActDrop {
			continue
		}
		in := instr{op: opSet + opcode(ac.Kind)}
		var err error
		if ac.A != nil {
			if in.a, err = lw.expr(ac.A, &code, ac.Line); err != nil {
				return nil, err
			}
		}
		if ac.B != nil {
			if in.b, err = lw.expr(ac.B, &code, ac.Line); err != nil {
				return nil, err
			}
		}
		switch ac.Kind {
		case ActSet:
			in.dst = lw.regs[ac.Reg]
			if in.a >= tempSlot {
				// The value is a scratch slot, written by the last
				// instruction: let that write the register instead.
				code[len(code)-1].dst = in.dst
				continue
			}
		case ActGoto:
			in.dst = int32(lw.states[ac.State])
		}
		code = append(code, in)
	}
	return code, nil
}

// expr appends the instructions computing e to code, operands in source
// order, and returns the slot holding e's value. Every operator writes a
// scratch slot of its own, so no operand is overwritten before its last
// read.
func (lw *lowerer) expr(e *Expr, code *[]instr, line int) (int32, error) {
	switch e.Op {
	case EConst:
		s, ok := lw.consts[e.Val]
		if !ok {
			s = int32(len(lw.frame))
			lw.consts[e.Val] = s
			lw.frame = append(lw.frame, e.Val)
		}
		return s, nil
	case EIdent:
		switch e.Ident {
		case "n":
			return slotN, nil
		case "self":
			return slotSelf, nil
		case "received":
			return slotReceived, nil
		case "msg":
			return slotMsg, nil
		case "target":
			return slotTarget, nil
		}
		s, ok := lw.regs[e.Ident]
		if !ok {
			return 0, fmt.Errorf("mar: line %d: unknown identifier %q", line, e.Ident)
		}
		return s, nil
	case ENeg, ERand, ELeader, ESumfor:
		a, err := lw.expr(e.L, code, line)
		if err != nil {
			return 0, err
		}
		return lw.emit(code, instr{op: opAdd + opcode(e.Op-EAdd), a: a}), nil
	case EAdd, ESub, EMul, EMod:
		a, err := lw.expr(e.L, code, line)
		if err != nil {
			return 0, err
		}
		b, err := lw.expr(e.R, code, line)
		if err != nil {
			return 0, err
		}
		return lw.emit(code, instr{op: opAdd + opcode(e.Op-EAdd), a: a, b: b}), nil
	}
	return 0, fmt.Errorf("mar: line %d: bad expression node %d", line, e.Op)
}

// emit appends in with a fresh scratch destination and returns that slot.
func (lw *lowerer) emit(code *[]instr, in instr) int32 {
	in.dst = tempSlot + lw.temps
	lw.temps++
	lw.maxTemps = max(lw.maxTemps, lw.temps)
	*code = append(*code, in)
	return in.dst
}

// relocate moves code's scratch slots onto the frame's scratch area, which
// starts at base.
func relocate(code []instr, base int32) {
	for i := range code {
		for _, s := range []*int32{&code[i].dst, &code[i].a, &code[i].b} {
			if *s >= tempSlot {
				*s += base - tempSlot
			}
		}
	}
}
