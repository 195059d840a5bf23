package mardsl

import (
	"fmt"

	"repro/internal/ring"
	"repro/internal/sim"
)

// maxReplayBuffer caps a machine's replay buffer; pushes beyond it are
// dropped so a looping spec cannot grow memory without bound.
const maxReplayBuffer = 4096

// machine executes one compiled program as a sim.Strategy. All mutable
// state lives on the machine and is fully re-established by Init, which is
// what lets the protocol adapter declare BatchSafe and ride the engine's
// batched strategy-vector reuse.
type machine struct {
	prog   *Program
	n      int
	target int64
	state  int
	halted bool
	frame  []int64 // builtins, registers, constants, scratch (see compile.go)
	buf    []int64
}

var _ sim.Strategy = (*machine)(nil)

// Init resets the frame — builtins, zeroed registers, constants — the
// replay buffer, and the state pointer, then runs the start state's
// wake-up clause.
func (m *machine) Init(ctx *sim.Context) {
	m.state = 0
	m.halted = false
	m.buf = m.buf[:0]
	if m.frame == nil {
		m.frame = make([]int64, len(m.prog.frame))
	}
	f := m.frame
	copy(f, m.prog.frame)
	f[slotN] = int64(m.n)
	f[slotSelf] = int64(ctx.Self())
	f[slotTarget] = m.target
	m.exec(ctx, m.prog.states[0].init)
}

// Receive counts the message and runs the current state's first matching
// clause. Validate guarantees the last clause is a catch-all, so exactly
// one clause runs per message.
func (m *machine) Receive(ctx *sim.Context, _ sim.ProcID, value int64) {
	if m.halted {
		return
	}
	m.frame[slotReceived]++
	m.frame[slotMsg] = value
	for _, code := range m.prog.states[m.state].recv {
		if m.exec(ctx, code) {
			return
		}
	}
}

// exec runs one clause's instructions. It reports false, having run no
// action, when a guard test fails; the guard's rand draws up to the failed
// test stay drawn, as the conditions are evaluated in order. Every
// operation is total, so no validated program can fail or panic here.
func (m *machine) exec(ctx *sim.Context, code []instr) bool {
	f := m.frame
	for _, in := range code {
		a, b := f[in.a], f[in.b]
		switch in.op {
		case opAdd:
			f[in.dst] = a + b
		case opSub:
			f[in.dst] = a - b
		case opMul:
			f[in.dst] = a * b
		case opMod:
			f[in.dst] = emod(a, b)
		case opNeg:
			f[in.dst] = -a
		case opRand:
			if a > 0 {
				a = ctx.Rand().Int63n(a)
			} else {
				a = 0
			}
			f[in.dst] = a
		case opLeader:
			f[in.dst] = emod(a, f[slotN]) + 1
		case opSumfor:
			f[in.dst] = emod(a-1, f[slotN])
		case opEq:
			if a != b {
				return false
			}
		case opNe:
			if a == b {
				return false
			}
		case opLt:
			if a >= b {
				return false
			}
		case opLe:
			if a > b {
				return false
			}
		case opGt:
			if a <= b {
				return false
			}
		case opGe:
			if a < b {
				return false
			}
		case opSet:
			f[in.dst] = a
		case opSend:
			ctx.Send(a)
		case opPush:
			if len(m.buf) < maxReplayBuffer {
				m.buf = append(m.buf, a)
			}
		case opReplay:
			lo, hi := max(a, 0), min(b, int64(len(m.buf)))
			for j := lo; j < hi; j++ {
				ctx.Send(m.buf[j])
			}
		case opGoto:
			m.state = int(in.dst)
		case opTerminate:
			m.halted = true
			ctx.Terminate(a)
		case opAbort:
			m.halted = true
			ctx.Abort()
		}
	}
	return true
}

// emod is the Euclidean remainder in [0, mod), matching ring.Mod, made
// total by yielding 0 for a non-positive modulus. Like ring.Mod it skips
// the hardware division for dividends in [−mod, 2·mod), where nearly every
// spec's arithmetic lands: sums of two residues and residue differences.
func emod(v, mod int64) int64 {
	switch {
	case mod <= 0:
		return 0
	case v >= 0 && v < mod:
		return v
	case v >= mod && v-mod < mod:
		return v - mod
	case v < 0 && v >= -mod:
		return v + mod
	}
	r := v % mod
	if r < 0 {
		r += mod
	}
	return r
}

// Protocol adapts a compiled protocol program to ring.Protocol.
type Protocol struct {
	prog *Program
}

var _ ring.Protocol = Protocol{}

// RingProtocol returns the program as a ring protocol; it errors for
// adversary programs.
func (p *Program) RingProtocol() (Protocol, error) {
	if p.Kind != KindProtocol {
		return Protocol{}, fmt.Errorf("mar: %s is an adversary spec, not a protocol", p.Name)
	}
	return Protocol{prog: p}, nil
}

// Name implements ring.Protocol.
func (p Protocol) Name() string { return p.prog.Name }

// BatchSafe marks the machines as fully re-initialized by Init, so one
// strategy vector can serve every trial of an engine chunk.
func (p Protocol) BatchSafe() {}

// Strategies implements ring.Protocol: every position runs a fresh machine.
// The machines and their frames share two backing arrays, so a trial
// allocates three objects whatever n is.
func (p Protocol) Strategies(n int) ([]sim.Strategy, error) {
	out := make([]sim.Strategy, n)
	machines := make([]machine, n)
	k := len(p.prog.frame)
	frames := make([]int64, n*k)
	for i := range out {
		machines[i] = machine{prog: p.prog, n: n, frame: frames[i*k : (i+1)*k : (i+1)*k]}
		out[i] = &machines[i]
	}
	return out, nil
}

// Attack adapts a compiled adversary program to ring.Attack.
type Attack struct {
	prog *Program
}

var _ ring.Attack = Attack{}

// RingAttack returns the program as a ring attack; it errors for protocol
// programs.
func (p *Program) RingAttack() (Attack, error) {
	if p.Kind != KindAdversary {
		return Attack{}, fmt.Errorf("mar: %s is a protocol spec, not an adversary", p.Name)
	}
	return Attack{prog: p}, nil
}

// Name implements ring.Attack.
func (a Attack) Name() string { return a.prog.Name }

// Plan implements ring.Attack: the coalition sits at the spec's fixed
// positions, each running a fresh machine aimed at target.
func (a Attack) Plan(n int, target int64, _ int64) (*ring.Deviation, error) {
	if target < 1 || target > int64(n) {
		return nil, fmt.Errorf("mar: %s: target %d out of range [1,%d]", a.prog.Name, target, n)
	}
	coalition := make([]sim.ProcID, len(a.prog.Place))
	strategies := make(map[sim.ProcID]sim.Strategy, len(a.prog.Place))
	for i, pos := range a.prog.Place {
		if pos < 1 || pos > n {
			return nil, fmt.Errorf("mar: %s: position %d out of range [1,%d]", a.prog.Name, pos, n)
		}
		id := sim.ProcID(pos)
		coalition[i] = id
		strategies[id] = &machine{prog: a.prog, n: n, target: target}
	}
	return &ring.Deviation{Coalition: coalition, Strategies: strategies}, nil
}
