package repro

// Allocation-regression tests for the trial hot path. Since the arena PR,
// one trial on a recycled per-worker arena allocates only the protocol's own
// strategy vector (n strategy objects plus the slice, plus a constant number
// of protocol-internal objects); the simulation core — network, links,
// queues, PRNGs, result buffers — is recycled and contributes zero. These
// tests pin that ceiling with testing.AllocsPerRun so a regression fails CI
// instead of silently re-inflating the Monte-Carlo workloads.

import (
	"testing"

	"repro/internal/fullnet"
	"repro/internal/protocols/alead"
	"repro/internal/protocols/basiclead"
	"repro/internal/protocols/phaselead"
	"repro/internal/ring"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// trialAllocs measures steady-state allocations per arena trial, varying
// the seed per run like a real batch does.
func trialAllocs(t *testing.T, trial func(seed int64, arena *sim.Arena) error, runs int) float64 {
	t.Helper()
	arena := sim.NewArena()
	seed := int64(0)
	run := func() {
		if err := trial(seed, arena); err != nil {
			t.Fatal(err)
		}
		seed++
	}
	run() // warm the arena: the first trial builds the network
	return testing.AllocsPerRun(runs, run)
}

// ringTrial runs spec at the given seed on the arena.
func ringTrial(spec ring.Spec) func(int64, *sim.Arena) error {
	return func(seed int64, arena *sim.Arena) error {
		spec.Seed = seed
		_, err := ring.RunArena(spec, arena)
		return err
	}
}

func TestArenaTrialAllocBudget(t *testing.T) {
	mar, ok := scenario.FindRingProtocol("mar-basic-lead")
	if !ok {
		t.Fatal("mar-basic-lead is not registered")
	}
	shamir, err := fullnet.New(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	shamirRunner := shamir.Runner()
	cases := []struct {
		name   string
		trial  func(seed int64, arena *sim.Arena) error
		budget float64 // measured steady state + small headroom
	}{
		// Basic-LEAD n=8 measures 9 = n strategies + 1 slice.
		{"basic-lead/n=8", ringTrial(ring.Spec{N: 8, Protocol: basiclead.New()}), 12},
		// A-LEADuni n=16 measures 17 = n strategies + 1 slice.
		{"a-lead/n=16", ringTrial(ring.Spec{N: 16, Protocol: alead.New()}), 20},
		// PhaseAsyncLead n=16 measures 19 = n strategies + slice + the
		// shared data/vals backing array + the randfunc.Func.
		{"phase-lead/n=16", ringTrial(ring.Spec{N: 16, Protocol: phaselead.NewDefault()}), 22},
		// The MAR Basic-LEAD twin n=16 measures 3 = the slice + one array
		// of machines + one array of their frames.
		{"ring/mar-basic-lead/fifo", ringTrial(ring.Spec{N: 16, Protocol: mar}), 5},
		// The Shamir election n=12 on a recycled runner measures 24 = the
		// coefficients and shares of each processor's Split; the reveal
		// checks allocate nothing.
		{"complete/shamir/fifo", func(seed int64, arena *sim.Arena) error {
			_, err := shamirRunner.Run(seed, nil, arena)
			return err
		}, 27},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := trialAllocs(t, tc.trial, 100)
			if got > tc.budget {
				t.Errorf("arena trial allocates %.1f allocs/op, budget %.0f — the hot path regressed",
					got, tc.budget)
			}
		})
	}
}

// TestArenaTrialAllocsBeatFresh asserts the arena's reason to exist: a
// recycled trial must allocate well under half of what a fresh-network trial
// does (the ISSUE's ≥50% target, measured at the single-trial level).
func TestArenaTrialAllocsBeatFresh(t *testing.T) {
	spec := ring.Spec{N: 16, Protocol: alead.New()}
	seed := int64(0)
	fresh := testing.AllocsPerRun(100, func() {
		spec.Seed = seed
		seed++
		if _, err := ring.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	recycled := trialAllocs(t, ringTrial(spec), 100)
	if recycled > fresh/2 {
		t.Errorf("arena trial allocates %.1f allocs/op vs %.1f fresh — less than a 2× reduction", recycled, fresh)
	}
}
