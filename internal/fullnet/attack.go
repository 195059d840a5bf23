package fullnet

import (
	"repro/internal/ring"
	"repro/internal/shamir"
	"repro/internal/sim"
)

// droneAdversary is an ordinary coalition member: it participates honestly
// with the fixed secret 0 (known to the whole coalition), and forwards every
// phase-1 share it receives from an honest owner to the closer, giving the
// coalition t-of-n visibility into every honest secret.
type droneAdversary struct {
	participant
	closer sim.ProcID
}

var _ sim.Strategy = (*droneAdversary)(nil)

func (d *droneAdversary) Init(ctx *sim.Context) {
	d.reset()
	d.secret = 0 // coalition constant: the closer accounts for it
	d.distribute(ctx, d.secret)
}

func (d *droneAdversary) Receive(ctx *sim.Context, from sim.ProcID, m int64) {
	kind, owner, value := unpack(m)
	if kind == msgShare && owner == int64(from) {
		// Pool the coalition's view at the closer before processing.
		ctx.SendTo(d.closer, pack(msgRelay, owner, value))
	}
	d.participant.Receive(ctx, from, m)
}

// closerAdversary is the coalition member that commits last. It withholds
// its phase-1 distribution until the pooled relays and its own incoming
// shares let it reconstruct every honest secret, then picks its own secret
// so that the total sum elects the target, and behaves honestly afterwards.
// Honest processors cannot start revealing until the closer distributes, so
// nothing the adversary needs is gated on its own commitment.
type closerAdversary struct {
	participant
	honestCount int
	targetSum   int64

	pool        map[int64]map[int64]int64 // owner → holder → share value
	distributed bool
	shares      []shamir.Share // tryCommit's scratch, recycled across owners and trials
}

var _ sim.Strategy = (*closerAdversary)(nil)

func (c *closerAdversary) Init(ctx *sim.Context) {
	c.reset()
	c.distributed = false
	if c.pool == nil {
		c.pool = make(map[int64]map[int64]int64, c.honestCount)
	} else {
		// Recycle the pooled-share maps across batched trials.
		for _, holders := range c.pool {
			clear(holders)
		}
	}
	// Do NOT distribute yet: commitment is deferred until we know the
	// honest sum. (Our own-secret validation in finish() is skipped by
	// setting the secret after distribution.)
}

func (c *closerAdversary) Receive(ctx *sim.Context, from sim.ProcID, m int64) {
	kind, owner, value := unpack(m)
	switch kind {
	case msgRelay:
		c.record(owner, int64(from), value)
	case msgShare:
		if owner == int64(from) {
			c.record(owner, int64(c.id), value)
		}
		c.participant.Receive(ctx, from, m)
		return
	default:
		c.participant.Receive(ctx, from, m)
		return
	}
	c.tryCommit(ctx)
}

func (c *closerAdversary) record(owner, holder, value int64) {
	if owner <= int64(c.honestCount) { // honest owners occupy 1..honestCount
		if c.pool[owner] == nil {
			c.pool[owner] = make(map[int64]int64, c.t)
		}
		c.pool[owner][holder] = value
	}
}

// tryCommit reconstructs every honest secret once the pool is deep enough,
// then commits the steering secret.
func (c *closerAdversary) tryCommit(ctx *sim.Context) {
	if c.distributed {
		return
	}
	for o := 1; o <= c.honestCount; o++ {
		if len(c.pool[int64(o)]) < c.t {
			return // not enough visibility yet
		}
	}
	var honestSum int64
	for o := 1; o <= c.honestCount; o++ {
		shares := c.shares[:0]
		for holder, value := range c.pool[int64(o)] {
			shares = append(shares, shamir.Share{X: holder, Value: value})
			if len(shares) == c.t {
				break
			}
		}
		c.shares = shares
		secret, err := shamir.Reconstruct(shares)
		if err != nil {
			ctx.Abort()
			return
		}
		honestSum = ring.Mod(honestSum+secret, c.n)
	}
	c.distributed = true
	// Drones contributed 0 each; our secret closes the sum on the target.
	c.secret = ring.Mod(c.targetSum-honestSum, c.n)
	c.distribute(ctx, c.secret)
}
