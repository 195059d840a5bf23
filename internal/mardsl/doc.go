// Package mardsl compiles a compact text format for per-processor state
// machines — MAR specs — onto the repository's ring simulator. A spec
// describes one protocol participant (or one adversary) as states × guarded
// receive clauses × action lists; the compiler lowers each clause once to
// a flat list of register instructions over a per-machine frame of slots
// (no evaluation stack, no per-message setup), executed by a machine
// implementing sim.Strategy, so compiled specs run on the exact arena hot
// path native protocols use: same trial-seed derivation, same engine chunking, same
// counter-based sim.Stream randomness. A compiled spec therefore inherits
// the sim-v2 determinism contract wholesale — byte-identical outcome
// distributions at any worker count, scheduler kind, or shard partition.
//
// # Grammar
//
// Specs are line-oriented; '#' starts a comment, indentation is free. A
// header section names the spec and its registration defaults, then one or
// more states follow. The first state is the start state.
//
//	spec <name>                      # slug; also the registered family name
//	kind protocol | adversary
//	topology ring                    # optional; ring is the only topology
//	use <protocol-slug>              # adversary only: protocol it deviates from
//	place <pos> [<pos> ...]          # adversary only: coalition positions (default 2)
//	defaults n=16 trials=400 [target=2] [minn=4] [k=1]
//	uniform                          # protocol only: honest outcome is uniform
//	reg <name> [<name> ...]          # named registers, zero-initialized
//
//	state <name>:
//	  init:                          # wake-up actions; start state only
//	    <action> ...
//	  on recv [when <cond> {and <cond>}]:
//	    <action> ...
//
// Actions: "set <reg> = <expr>", "send <expr>", "push <expr>" (append to
// the replay buffer), "replay <lo> <hi>" (send buffer entries [lo, hi),
// clamped), "goto <state>", "terminate <expr>", "abort", "drop" (consume
// the message, do nothing). A goto/terminate/abort must be a clause's last
// action.
//
// Conditions compare two expressions with == != < <= > >=. Expressions use
// + - * % (Euclidean remainder, total: a non-positive modulus yields 0),
// parentheses, unary minus, integer literals, registers, and the builtins
// n, self, received (messages processed so far, including the one being
// handled), msg (the payload; receive clauses only) and target (adversary
// specs only). The functions rand(e) — one ctx.Rand().Int63n(e) draw,
// 0 when e ≤ 0 — leader(e) = ring.LeaderFromSum(e, n) and sumfor(e) =
// ring.SumForLeader(e, n) bind the spec to the paper's election arithmetic.
// Arithmetic is int64 with wraparound, which keeps every operation total
// and deterministic.
//
// # Static validation
//
// Validate rejects, with positions: unknown identifiers, msg outside
// receive clauses, target in protocol specs, init outside the start state,
// goto to a missing state, unreachable states, states that can receive but
// have no receive clause (unguarded receives), dead clauses after a
// catch-all, and states whose last receive clause still carries a guard
// (non-exhaustive transitions). Adversary specs must name the protocol
// they deviate from (use) and list strictly increasing coalition
// positions.
//
// # Pipeline
//
// Parse → Validate → Compile yields a Program; Program.RingProtocol and
// Program.RingAttack adapt it to the ring package's interfaces. The
// marlib subpackage registers compiled programs in the scenario catalog
// behind the normal Opts/DeviationFamily plumbing, and GenerateProtocol /
// GenerateAdversary emit grammar-random specs for the generative fuzz and
// certification layers.
package mardsl
