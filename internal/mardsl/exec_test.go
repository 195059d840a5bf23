package mardsl

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ring"
	"repro/internal/sim"
)

// runSpec compiles a protocol spec and executes one election.
func runSpec(t *testing.T, src string, n int) sim.Result {
	t.Helper()
	prog, err := Load(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	proto, err := prog.RingProtocol()
	if err != nil {
		t.Fatalf("ring protocol: %v", err)
	}
	res, err := ring.Run(ring.Spec{N: n, Protocol: proto, Seed: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// header wraps a state body into a minimal protocol spec.
func header(body string) string {
	return "spec t\nkind protocol\nreg x\n" + body
}

func TestMachineSemantics(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		n      int
		output int64
		reason sim.FailReason
	}{
		{
			// Euclidean remainder of a negative value.
			name: "negative mod",
			src: header(`state run:
  init:
    set x = (0 - 5) % n
    send x
  on recv:
    terminate x + 1
`),
			n: 4, output: 4,
		},
		{
			// rand of a non-positive bound yields 0 without drawing.
			name: "rand non-positive",
			src: header(`state run:
  init:
    send rand(0 - 3)
  on recv:
    terminate msg + 1
`),
			n: 3, output: 1,
		},
		{
			// replay clamps its range to the buffer.
			name: "replay clamp",
			src: header(`state run:
  init:
    push 7
    push 8
    replay (0 - 2) 9
  on recv when received < 2:
    drop
  on recv:
    terminate msg
`),
			n: 2, output: 8,
		},
		{
			// goto switches the receive table between messages.
			name: "goto",
			src: header(`state a:
  init:
    send self
  on recv:
    send msg
    goto b
state b:
  on recv:
    terminate msg % 1 + 2
`),
			n: 3, output: 2,
		},
		{
			name: "abort",
			src: header(`state run:
  init:
    send 1
  on recv:
    abort
`),
			n: 2, reason: sim.FailAbort,
		},
		{
			name: "drop stalls",
			src: header(`state run:
  init:
    send 1
  on recv:
    drop
`),
			n: 2, reason: sim.FailStall,
		},
		{
			name: "disagreement",
			src: header(`state run:
  init:
    send 1
  on recv:
    terminate self
`),
			n: 2, reason: sim.FailMismatch,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runSpec(t, tc.src, tc.n)
			if tc.reason != sim.FailNone {
				if !res.Failed || res.Reason != tc.reason {
					t.Fatalf("want failure %v, got %+v", tc.reason, res)
				}
				return
			}
			if res.Failed {
				t.Fatalf("unexpected failure: %+v", res)
			}
			if res.Output != tc.output {
				t.Fatalf("want output %d, got %d", tc.output, res.Output)
			}
		})
	}
}

func TestExpressionEvaluation(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"(3 * 5 + 1) % 7", 2},
		{"leader(6)", 3},    // emod(6, 4) + 1
		{"sumfor(1)", 0},    // emod(0, 4)
		{"- 5 % n", 3},      // unary minus binds tighter than %
		{"2 - 3 - 4", -5},   // left-associative subtraction
		{"2 + 3 * 4", 14},   // precedence
		{"(2 + 3) * 4", 20}, // parentheses
		{"7 % (2 - 2)", 0},  // total mod: zero modulus yields 0
		{"7 % (1 - 4)", 0},  // total mod: negative modulus yields 0
		{"rand(1)", 0},      // the only value in [0, 1)
	}
	for _, tc := range cases {
		t.Run(tc.expr, func(t *testing.T) {
			src := header(`state run:
  init:
    send 1
  on recv:
    terminate ` + tc.expr + "\n")
			res := runSpec(t, src, 4)
			if res.Failed {
				t.Fatalf("unexpected failure: %+v", res)
			}
			if res.Output != tc.want {
				t.Fatalf("%s = %d, want %d", tc.expr, res.Output, tc.want)
			}
		})
	}
}

func TestAdapterKindMismatch(t *testing.T) {
	proto, err := Load(basicLeadSrc)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := Load(basicSingleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.RingAttack(); err == nil {
		t.Errorf("RingAttack on a protocol program should error")
	}
	if _, err := adv.RingProtocol(); err == nil {
		t.Errorf("RingProtocol on an adversary program should error")
	}
}

func TestAttackPlanBounds(t *testing.T) {
	prog, err := Load(basicSingleSrc)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := prog.RingAttack()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atk.Plan(8, 0, 0); err == nil {
		t.Errorf("target 0 should be rejected")
	}
	if _, err := atk.Plan(8, 99, 0); err == nil {
		t.Errorf("target beyond n should be rejected")
	}
	if _, err := atk.Plan(1, 1, 0); err == nil {
		t.Errorf("coalition position beyond n should be rejected")
	}
	dev, err := atk.Plan(8, 3, 0)
	if err != nil {
		t.Fatalf("feasible plan rejected: %v", err)
	}
	if err := dev.Validate(8); err != nil {
		t.Errorf("planned deviation invalid: %v", err)
	}
}

func TestCompiledTrialsDeterministic(t *testing.T) {
	prog, err := Load(basicLeadSrc)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := prog.RingProtocol()
	if err != nil {
		t.Fatal(err)
	}
	spec := ring.Spec{N: 6, Protocol: proto, Seed: 11}
	a, err := ring.Trials(spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ring.Trials(spec, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated trial batches differ:\n%+v\n%+v", a, b)
	}
}

func TestProgramLimitsCompile(t *testing.T) {
	// A spec at the register limit still compiles and runs.
	var b strings.Builder
	b.WriteString("spec t\nkind protocol\nreg")
	for i := 0; i < MaxRegs; i++ {
		b.WriteString(" r")
		b.WriteByte('a' + byte(i))
	}
	b.WriteString("\nstate run:\n  init:\n    set ra = 1\n    send ra\n  on recv:\n    terminate rp + 1\n")
	res := runSpec(t, b.String(), 3)
	if res.Failed || res.Output != 1 {
		t.Fatalf("max-register spec misbehaved: %+v", res)
	}
}

// TestEmodBoundaries pins the division-free fast paths of emod against the
// plain definition (v % m, shifted into [0, m)) at the edges of each range
// they cover, and the total rule that a non-positive modulus yields 0.
func TestEmodBoundaries(t *testing.T) {
	ref := func(v, m int64) int64 {
		r := v % m
		if r < 0 {
			r += m
		}
		return r
	}
	for _, m := range []int64{1, 2, 7, 64, 1 << 40, math.MaxInt64/2 + 1, math.MaxInt64} {
		for _, v := range []int64{
			math.MinInt64, -2 * m, -m - 1, -m, -1, 0, m - 1, m, 2*m - 1, 2 * m, math.MaxInt64,
		} {
			if got, want := emod(v, m), ref(v, m); got != want {
				t.Errorf("emod(%d, %d) = %d, want %d", v, m, got, want)
			}
		}
	}
	for _, m := range []int64{0, -1, -7, math.MinInt64} {
		for _, v := range []int64{math.MinInt64, -1, 0, 1, 5, math.MaxInt64} {
			if got := emod(v, m); got != 0 {
				t.Errorf("emod(%d, %d) = %d, want 0", v, m, got)
			}
		}
	}
}
