package fullnet

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/shamir"
	"repro/internal/sim"
)

func TestHonestElectionSucceedsAndAgrees(t *testing.T) {
	for _, n := range []int{3, 4, 7, 12} {
		e, err := New(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 4; seed++ {
			res, err := e.Run(seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("n=%d seed=%d: honest election failed: %v", n, seed, res.Reason)
			}
			if res.Output < 1 || res.Output > int64(n) {
				t.Fatalf("n=%d: leader %d out of range", n, res.Output)
			}
		}
	}
}

func TestScheduleIndependence(t *testing.T) {
	// The complete graph has many incoming links per processor, so the
	// scheduler genuinely reorders deliveries; set-based gates make the
	// outcome schedule-independent anyway.
	e, err := New(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	var first int64
	for i, s := range []sim.Scheduler{sim.FIFOScheduler{}, sim.LIFOScheduler{}, sim.NewRandomScheduler(3), sim.NewRandomScheduler(99)} {
		res, err := e.Run(7, s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("failed under scheduler %d: %v", i, res.Reason)
		}
		if i == 0 {
			first = res.Output
		} else if res.Output != first {
			t.Fatalf("outcome differs across schedules: %d vs %d", res.Output, first)
		}
	}
}

func TestHonestUniformity(t *testing.T) {
	const (
		n      = 8
		trials = 1500
	)
	e, err := New(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n+1)
	for seed := int64(0); seed < trials; seed++ {
		res, err := e.Run(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			t.Fatalf("seed=%d failed: %v", seed, res.Reason)
		}
		counts[res.Output]++
	}
	want := float64(trials) / n
	for j := 1; j <= n; j++ {
		if got := float64(counts[j]); got < want*0.6 || got > want*1.4 {
			t.Errorf("leader %d elected %v times, want ≈ %v", j, got, want)
		}
	}
}

func TestCoalitionAtThresholdControls(t *testing.T) {
	// k = ⌈n/2⌉ = t: the coalition pools t shares per honest secret,
	// reconstructs early, and forces any target — the impossibility
	// threshold, realized.
	for _, n := range []int{8, 9, 13} {
		e, err := New(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		k := e.Threshold()
		for seed := int64(0); seed < 5; seed++ {
			res, err := e.RunAttack(k, 2, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed || res.Output != 2 {
				t.Fatalf("n=%d k=%d seed=%d: failed=%v output=%d",
					n, k, seed, res.Failed, res.Output)
			}
		}
	}
}

func TestCoalitionBelowThresholdRefused(t *testing.T) {
	// k = ⌈n/2⌉−1: the paper's optimal resilience bound. Early
	// reconstruction is information-theoretically impossible (Shamir
	// hiding), so planning the attack fails — the resilience certificate.
	e, err := New(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunAttack(e.Threshold()-1, 2, 0, nil); err == nil {
		t.Fatal("attack planned below the Shamir threshold")
	}
}

func TestTamperedShareAborts(t *testing.T) {
	// A participant distributing an inconsistent sharing is caught by the
	// receiver-side polynomial check.
	const n = 7
	e, err := New(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	strategies := make([]sim.Strategy, n)
	e.honest(strategies)
	strategies[3] = &tamperer{e.participant(4)}
	res, err := e.execute(strategies, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		t.Fatal("inconsistent sharing not detected")
	}
}

// tamperer distributes a corrupted sharing: one share is bumped off the
// polynomial, which the receiver-side Consistent check must catch.
type tamperer struct{ participant }

func (a *tamperer) Init(ctx *sim.Context) {
	a.myShares = make([]int64, a.n+1)
	a.haveShare = make([]bool, a.n+1)
	a.reveals = make([][]int64, a.n+1)
	for o := 1; o <= a.n; o++ {
		a.reveals[o] = make([]int64, a.n+1)
		for h := range a.reveals[o] {
			a.reveals[o][h] = -1
		}
	}
	a.secret = ctx.Rand().Int63n(int64(a.n))
	shares, err := shamir.Split(a.secret, a.t, a.n, ctx.Rand())
	if err != nil {
		t := ctx // unreachable in tests
		t.Abort()
		return
	}
	for _, s := range shares {
		v := s.Value
		if int(s.X) == a.n { // corrupt the last recipient's share
			v = (v + 1) % shamir.P
		}
		if int(s.X) == a.id {
			a.acceptShare(ctx, int64(a.id), v)
			continue
		}
		ctx.SendTo(sim.ProcID(s.X), pack(msgShare, int64(a.id), v))
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, kind := range []int64{msgShare, msgReveal, msgRelay} {
		for _, owner := range []int64{1, 7, 4095} {
			for _, value := range []int64{0, 1, 1<<31 - 2} {
				k, o, v := unpack(pack(kind, owner, value))
				if k != kind || o != owner || v != value {
					t.Fatalf("round trip (%d,%d,%d) → (%d,%d,%d)", kind, owner, value, k, o, v)
				}
			}
		}
	}
}

// TestRunnersShareBasis runs runners of one election on several goroutines
// at once. They share the election's read-only interpolation basis, so
// every runner reproduces a sequential run trial for trial; under -race
// the test also checks that nothing writes the shared basis.
func TestRunnersShareBasis(t *testing.T) {
	e, err := New(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, trials = 4, 12
	want := make([]sim.Result, trials)
	seq := e.Runner()
	for i := range want {
		if want[i], err = seq.Run(int64(i), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, arena := e.Runner(), sim.NewArena()
			for i := 0; i < trials; i++ {
				res, err := r.Run(int64(i), nil, arena)
				if err != nil {
					errs <- err
					return
				}
				if res.Failed != want[i].Failed || res.Output != want[i].Output || res.Delivered != want[i].Delivered {
					errs <- fmt.Errorf("trial %d: got %+v, sequential %+v", i, res, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
