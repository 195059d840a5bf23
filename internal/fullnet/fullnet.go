// Package fullnet implements fair leader election on an asynchronous fully
// connected network via Shamir secret sharing — the paper's Section 1.1
// reference scenario, where the straightforward construction is resilient to
// coalitions of size k = ⌈n/2⌉−1 and provably no further.
//
// Protocol. Every processor draws a secret d_i ∈ [n], splits it with
// threshold t = ⌈n/2⌉ and sends share x to processor x. A processor reveals
// the shares it holds (one per owner, broadcast to everyone) only once it
// has received a share from every owner — so every owner is committed to a
// unique reconstructible secret before anyone's reveal discloses anything.
// When all n² reveals are in, each processor checks every owner's n shares
// lie on one degree-(t−1) polynomial (cheater detection), reconstructs,
// verifies its own secret survived, and elects leader Σd_i mod n + 1.
//
// Resilience shape. A coalition of k < t processors holds fewer than t
// shares of any honest secret when it must commit its own, so the election
// stays uniform. At k ≥ t the coalition pools its phase-1 shares, privately
// reconstructs every honest secret before distributing the last member's
// shares, and picks that member's secret to force any target — matching the
// paper's impossibility threshold of ⌈n/2⌉ exactly (Theorem 7.2: a complete
// graph is a 2-node simulated tree with parts of size ⌈n/2⌉).
package fullnet

import (
	"errors"
	"fmt"

	"repro/internal/ring"
	"repro/internal/shamir"
	"repro/internal/sim"
)

// Message type tags, packed into int64 payloads as
// [type:2][owner:12][value:31].
const (
	msgShare  int64 = 1 // phase 1: owner → holder (holder's x = recipient)
	msgReveal int64 = 2 // phase 2: holder broadcasts its share of owner
	msgRelay  int64 = 3 // coalition-internal: drone forwards a held share
)

func pack(kind, owner, value int64) int64 {
	return kind | owner<<2 | value<<14
}

func unpack(m int64) (kind, owner, value int64) {
	return m & 3, (m >> 2) & 0xfff, m >> 14
}

// Election configures fair leader election on the complete graph K_n.
type Election struct {
	n     int
	t     int
	edges []sim.Edge    // the n·(n−1) directed links of K_n, built once
	basis *shamir.Basis // interpolation for points 1..n, threshold t
}

// New builds an election for n processors; threshold 0 picks ⌈n/2⌉.
func New(n, threshold int) (*Election, error) {
	if n < 3 {
		return nil, fmt.Errorf("fullnet: need n ≥ 3, got %d", n)
	}
	if n > 0xfff {
		return nil, fmt.Errorf("fullnet: n=%d exceeds the payload owner field", n)
	}
	if threshold == 0 {
		threshold = (n + 1) / 2
	}
	if threshold < 2 || threshold > n {
		return nil, fmt.Errorf("fullnet: threshold %d out of range [2,%d]", threshold, n)
	}
	// The complete-graph edge set is immutable and read-only during
	// execution, so one copy serves every run and every trial worker.
	edges := make([]sim.Edge, 0, n*(n-1))
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i != j {
				edges = append(edges, sim.Edge{From: sim.ProcID(i), To: sim.ProcID(j)})
			}
		}
	}
	// The interpolation constants depend only on (n, t): every participant
	// of every run and runner reads the same basis.
	basis, err := shamir.NewBasis(n, threshold)
	if err != nil {
		return nil, err
	}
	return &Election{n: n, t: threshold, edges: edges, basis: basis}, nil
}

// Threshold returns the reconstruction threshold t.
func (e *Election) Threshold() int { return e.t }

// Run executes one honest election.
func (e *Election) Run(seed int64, sched sim.Scheduler) (sim.Result, error) {
	return e.RunArena(seed, sched, nil)
}

// RunArena is Run on a recycled per-worker simulation arena (nil falls back
// to fresh allocations with an identical result).
func (e *Election) RunArena(seed int64, sched sim.Scheduler, arena *sim.Arena) (sim.Result, error) {
	strategies := arena.Strategies(e.n)
	e.honest(strategies)
	return e.execute(strategies, seed, sched, arena)
}

// RunAttack executes an election with a coalition of size k (occupying the
// last k positions) trying to force target. Planning fails for k below the
// threshold: the coalition cannot reconstruct any honest secret before its
// last member commits, which is the resilience certificate.
func (e *Election) RunAttack(k int, target int64, seed int64, sched sim.Scheduler) (sim.Result, error) {
	return e.RunAttackArena(k, target, seed, sched, nil)
}

// RunAttackArena is RunAttack on a recycled per-worker simulation arena
// (nil falls back to fresh allocations with an identical result).
func (e *Election) RunAttackArena(k int, target int64, seed int64, sched sim.Scheduler, arena *sim.Arena) (sim.Result, error) {
	strategies := arena.Strategies(e.n)
	if err := e.coalition(k, target, strategies); err != nil {
		return sim.Result{}, err
	}
	return e.execute(strategies, seed, sched, arena)
}

// Runner is a reusable trial runner: the participant (and coalition)
// strategy objects are built and validated once and fully re-initialized in
// place by every run — reset recycles the O(n²) share/reveal buffers — so a
// chunked trial batch constructs nothing per trial. Each Runner serves one
// goroutine; runs on it are bit-identical to RunArena/RunAttackArena calls
// with the same seeds.
type Runner struct {
	e          *Election
	strategies []sim.Strategy
}

// Runner returns a reusable runner for honest elections.
func (e *Election) Runner() *Runner {
	strategies := make([]sim.Strategy, e.n)
	e.honest(strategies)
	return &Runner{e: e, strategies: strategies}
}

// AttackRunner returns a reusable runner for coalition elections, validating
// the configuration once with RunAttackArena's exact checks and errors.
func (e *Election) AttackRunner(k int, target int64) (*Runner, error) {
	strategies := make([]sim.Strategy, e.n)
	if err := e.coalition(k, target, strategies); err != nil {
		return nil, err
	}
	return &Runner{e: e, strategies: strategies}, nil
}

// Run executes one election on the runner's strategy vector.
func (r *Runner) Run(seed int64, sched sim.Scheduler, arena *sim.Arena) (sim.Result, error) {
	return r.e.execute(r.strategies, seed, sched, arena)
}

// participant returns a fresh honest participant at position id.
func (e *Election) participant(id int) participant {
	return participant{n: e.n, t: e.t, id: id, basis: e.basis}
}

// honest fills strategies with honest participants at positions
// 1..len(strategies), carved from one array.
func (e *Election) honest(strategies []sim.Strategy) {
	ps := make([]participant, len(strategies))
	for i := range strategies {
		ps[i] = e.participant(i + 1)
		strategies[i] = &ps[i]
	}
}

// coalition fills strategies with honest participants and a coalition of
// size k in the last k positions steering toward target, or explains why
// the configuration is infeasible.
func (e *Election) coalition(k int, target int64, strategies []sim.Strategy) error {
	if target < 1 || target > int64(e.n) {
		return fmt.Errorf("fullnet: target %d out of range [1,%d]", target, e.n)
	}
	if k < e.t {
		return fmt.Errorf(
			"fullnet: coalition of %d holds fewer than t=%d shares per honest secret; early reconstruction impossible (resilient regime)",
			k, e.t)
	}
	if k >= e.n {
		return errors.New("fullnet: coalition covers the whole network")
	}
	e.honest(strategies[:e.n-k])
	closer := e.n // the last member commits last
	for i := e.n - k + 1; i < closer; i++ {
		strategies[i-1] = &droneAdversary{participant: e.participant(i), closer: sim.ProcID(closer)}
	}
	strategies[closer-1] = &closerAdversary{
		participant: e.participant(closer),
		honestCount: e.n - k,
		targetSum:   ring.SumForLeader(target, e.n),
	}
	return nil
}

func (e *Election) execute(strategies []sim.Strategy, seed int64, sched sim.Scheduler, arena *sim.Arena) (sim.Result, error) {
	return arena.Run(sim.Config{
		Strategies: strategies,
		Edges:      e.edges,
		Seed:       seed,
		Scheduler:  sched,
		StepLimit:  8*e.n*e.n*e.n + 4096,
	})
}

// participant is the honest strategy.
type participant struct {
	n, t, id int
	basis    *shamir.Basis // shared, read-only

	secret    int64
	myShares  []int64 // by owner: the share this processor holds
	haveShare []bool
	shareCnt  int
	revealed  bool
	reveals   [][]int64 // [owner][holder]
	revealCnt int
	done      bool
}

var _ sim.Strategy = (*participant)(nil)

// reset re-establishes the pre-run state, recycling the O(n²) share and
// reveal buffers when they are already the right shape — the allocation
// that used to dominate a trial's cost. A reset participant is
// indistinguishable from a freshly constructed one, which is what lets
// chunked trial batches (Runner) reuse one strategy vector across trials.
func (p *participant) reset() {
	if len(p.myShares) != p.n+1 {
		p.myShares = make([]int64, p.n+1)
		p.haveShare = make([]bool, p.n+1)
		p.reveals = make([][]int64, p.n+1)
		for o := 1; o <= p.n; o++ {
			p.reveals[o] = make([]int64, p.n+1)
		}
	} else {
		clear(p.myShares)
		clear(p.haveShare)
	}
	for o := 1; o <= p.n; o++ {
		row := p.reveals[o]
		for h := range row {
			row[h] = -1
		}
	}
	p.secret = 0
	p.shareCnt, p.revealed = 0, false
	p.revealCnt, p.done = 0, false
}

func (p *participant) Init(ctx *sim.Context) {
	p.reset()
	p.secret = ctx.Rand().Int63n(int64(p.n))
	p.distribute(ctx, p.secret)
}

// distribute splits and sends the secret's shares (own share kept locally).
func (p *participant) distribute(ctx *sim.Context, secret int64) {
	shares, err := shamir.Split(secret, p.t, p.n, ctx.Rand())
	if err != nil {
		ctx.Abort()
		return
	}
	for _, s := range shares {
		if int(s.X) == p.id {
			p.acceptShare(ctx, int64(p.id), s.Value)
			continue
		}
		ctx.SendTo(sim.ProcID(s.X), pack(msgShare, int64(p.id), s.Value))
	}
}

func (p *participant) acceptShare(ctx *sim.Context, owner, value int64) {
	if owner < 1 || owner > int64(p.n) || value < 0 || value >= shamir.P {
		ctx.Abort()
		return
	}
	if p.haveShare[owner] {
		ctx.Abort() // duplicate distribution is a visible deviation
		return
	}
	p.haveShare[owner] = true
	p.myShares[owner] = value
	p.shareCnt++
	if p.shareCnt == p.n && !p.revealed {
		p.revealed = true
		// Every owner is now committed; disclose our row.
		for o := 1; o <= p.n; o++ {
			p.acceptReveal(ctx, o, p.id, p.myShares[int64(o)])
			for dst := 1; dst <= p.n; dst++ {
				if dst != p.id {
					ctx.SendTo(sim.ProcID(dst), pack(msgReveal, int64(o), p.myShares[o]))
				}
			}
		}
	}
}

func (p *participant) acceptReveal(ctx *sim.Context, owner, holder int, value int64) {
	if owner < 1 || owner > p.n || value < 0 || value >= shamir.P {
		ctx.Abort()
		return
	}
	if p.reveals[owner][holder] >= 0 {
		ctx.Abort() // duplicate reveal
		return
	}
	p.reveals[owner][holder] = value
	p.revealCnt++
	if p.revealCnt == p.n*p.n {
		p.finish(ctx)
	}
}

func (p *participant) finish(ctx *sim.Context) {
	if p.done {
		return
	}
	p.done = true
	var sum int64
	for o := 1; o <= p.n; o++ {
		row := p.reveals[o][1:] // row[h-1] is holder h's share of owner o
		if !p.basis.Consistent(row) {
			ctx.Abort() // owner o distributed an invalid sharing
			return
		}
		secret := p.basis.Secret(row)
		if o == p.id && secret != p.secret {
			ctx.Abort() // our own secret was corrupted in flight
			return
		}
		sum = ring.Mod(sum+secret, p.n)
	}
	ctx.Terminate(ring.LeaderFromSum(sum, p.n))
}

func (p *participant) Receive(ctx *sim.Context, from sim.ProcID, m int64) {
	kind, owner, value := unpack(m)
	switch kind {
	case msgShare:
		if owner != int64(from) {
			ctx.Abort() // shares must come from their owner
			return
		}
		p.acceptShare(ctx, owner, value)
	case msgReveal:
		p.acceptReveal(ctx, int(owner), int(from), value)
	default:
		ctx.Abort() // unknown message type
	}
}
