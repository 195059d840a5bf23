package mardsl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/protocols/basiclead"
	"repro/internal/ring"
	"repro/internal/sim"
)

// digestTrials is the number of trials hashed per (spec, scheduler) pair.
const digestTrials = 40

// goldenDigests pins the outcome bytes of the generated specs of seeds
// 1..5 under every scheduler kind; between them the seeds reach every
// adversary endgame but the noise one, so replay, goto, sumfor, leader
// and rand all run. The table was recorded from the stack-machine
// evaluator the register form replaced, so it holds the lowering to the
// original's arithmetic, guard order and rand-draw order.
var goldenDigests = map[string]string{
	"adv-1/fifo":     "bafe4b6d28bc11df517b8c870075a752b067ee6b84907a59a0214c341a92b272",
	"adv-1/lifo":     "bafe4b6d28bc11df517b8c870075a752b067ee6b84907a59a0214c341a92b272",
	"adv-1/random":   "9a8855d91f63e5a45f27fa08be5f1f58854d2588d6aa1c68fea652fc224fcfb3",
	"adv-2/fifo":     "eab9129ad85252f4289239c19164b51a957e3a86981fef497a45dbaf5e65d64e",
	"adv-2/lifo":     "eab9129ad85252f4289239c19164b51a957e3a86981fef497a45dbaf5e65d64e",
	"adv-2/random":   "e9d6ce963cdebae74a3a87023295d7f2ca771bfedcbe36c5fc2fbf03e81213af",
	"adv-3/fifo":     "3814b102c1b28b94299711422bddd00d8b63a7c8bc395a3a1fc00ef5ec77d429",
	"adv-3/lifo":     "3814b102c1b28b94299711422bddd00d8b63a7c8bc395a3a1fc00ef5ec77d429",
	"adv-3/random":   "9d53fc47720715831d2c460f9c1e0a9c635d524f31db050e89cb3f9df629ec32",
	"adv-4/fifo":     "e934f92be87ae73ebed309cdfbc2a745bb0c158ce80aa5cac8076a2d7814285b",
	"adv-4/lifo":     "c5e3e002b9057017426c2abf465bd3fc1b55268d19d4d880d4acb13169eb9899",
	"adv-4/random":   "cd4d38b3a6d704f56d82478116b820d3cea3d25f2405ee395f73a68b2bdbde08",
	"adv-5/fifo":     "f4435ded45a4cdade750ec0b75d269db736972dfa78284221be5a32a9db7c9c0",
	"adv-5/lifo":     "8f5c58e0546918e8e577c100d68fd078c6ba73854a5a7c02b772d507bddfba6d",
	"adv-5/random":   "d5343cf1d8ae9ebe1c60e5d20ac83c196836401255ae5c7f55803cbdc77e23a6",
	"proto-1/fifo":   "7d3c2bc9d145d77bc63dec43773548b41dc12ea8eb53bfdeb3e079532d5e047e",
	"proto-1/lifo":   "7d3c2bc9d145d77bc63dec43773548b41dc12ea8eb53bfdeb3e079532d5e047e",
	"proto-1/random": "7d3c2bc9d145d77bc63dec43773548b41dc12ea8eb53bfdeb3e079532d5e047e",
	"proto-2/fifo":   "937dc64c01004c0e22e427911bb38711c06b611f9b044a4871d4aab8c186e15c",
	"proto-2/lifo":   "937dc64c01004c0e22e427911bb38711c06b611f9b044a4871d4aab8c186e15c",
	"proto-2/random": "937dc64c01004c0e22e427911bb38711c06b611f9b044a4871d4aab8c186e15c",
	"proto-3/fifo":   "2d137c198d7a132dda8276f467a601d3b51c7c8ce0d523576ee53f4b01737ece",
	"proto-3/lifo":   "2d137c198d7a132dda8276f467a601d3b51c7c8ce0d523576ee53f4b01737ece",
	"proto-3/random": "2d137c198d7a132dda8276f467a601d3b51c7c8ce0d523576ee53f4b01737ece",
	"proto-4/fifo":   "3895a4d058dde03af36258fe3cf9f14aa047c4f159aec20a5cf9c7d6ec02a210",
	"proto-4/lifo":   "3895a4d058dde03af36258fe3cf9f14aa047c4f159aec20a5cf9c7d6ec02a210",
	"proto-4/random": "3895a4d058dde03af36258fe3cf9f14aa047c4f159aec20a5cf9c7d6ec02a210",
	"proto-5/fifo":   "fc965455ddf778c59e0fe40d44af3be23d487c1bb1e03c869cd8d238f47e7070",
	"proto-5/lifo":   "fc965455ddf778c59e0fe40d44af3be23d487c1bb1e03c869cd8d238f47e7070",
	"proto-5/random": "fc965455ddf778c59e0fe40d44af3be23d487c1bb1e03c869cd8d238f47e7070",
}

// specDigest runs digestTrials trials of spec under the named scheduler
// kind and hashes every field of every result.
func specDigest(t *testing.T, spec ring.Spec, sched string) string {
	t.Helper()
	h := sha256.New()
	base := spec.Seed
	for i := 0; i < digestTrials; i++ {
		spec.Seed = ring.TrialSeed(base, i)
		switch sched {
		case "fifo":
			spec.Scheduler = sim.FIFOScheduler{}
		case "lifo":
			spec.Scheduler = sim.LIFOScheduler{}
		case "random":
			spec.Scheduler = sim.NewRandomScheduler(spec.Seed)
		}
		res, err := ring.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(h, res.Failed, res.Reason, res.Output, res.Outputs, res.Statuses, res.Delivered, res.Dropped, res.Steps)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratedSpecDigests(t *testing.T) {
	got := map[string]string{}
	for seed := int64(1); seed <= 5; seed++ {
		pprog, err := Load(GenerateProtocol(seed))
		if err != nil {
			t.Fatal(err)
		}
		proto, err := pprog.RingProtocol()
		if err != nil {
			t.Fatal(err)
		}
		aprog, err := Load(GenerateAdversary(seed))
		if err != nil {
			t.Fatal(err)
		}
		atk, err := aprog.RingAttack()
		if err != nil {
			t.Fatal(err)
		}
		dev, err := atk.Plan(aprog.Defaults.N, aprog.Defaults.Target, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []string{"fifo", "lifo", "random"} {
			got[fmt.Sprintf("proto-%d/%s", seed, sched)] = specDigest(t,
				ring.Spec{N: pprog.Defaults.N, Protocol: proto, Seed: seed}, sched)
			got[fmt.Sprintf("adv-%d/%s", seed, sched)] = specDigest(t,
				ring.Spec{N: aprog.Defaults.N, Protocol: basiclead.New(), Deviation: dev, Seed: seed}, sched)
		}
	}
	if len(got) != len(goldenDigests) {
		t.Errorf("%d digests computed, %d pinned", len(got), len(goldenDigests))
	}
	for name, digest := range got {
		if want := goldenDigests[name]; digest != want {
			t.Errorf("%s: digest %s, want %s", name, digest, want)
		}
	}
}
