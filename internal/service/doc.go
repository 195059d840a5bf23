// Package service is the resident simulation daemon behind cmd/fleserve: a
// long-running HTTP front end over the scenario registry that batches,
// deduplicates, caches, and streams Monte-Carlo trial work instead of
// recomputing every request from scratch.
//
// Three pieces cooperate:
//
//   - The Scheduler accepts batches of {scenario, n, trials, seed} job
//     requests, content-addresses each one with scenario.JobKey,
//     deduplicates identical jobs in flight (two concurrent submissions of
//     the same key share one engine run), and runs each fresh trial job as
//     a queue of trial-range chunks drained by one local runner in one of
//     a bounded set of slots (a coordinator also leases the chunks to
//     fleet workers). Engine workers draw recycled sim.Arena workspaces
//     from one shared engine.ArenaPool — arenas persist across jobs, not
//     just across the trials of one job.
//   - The Cache stores each finished result's exact wire bytes under its
//     job key. Deterministic seeding makes a cached distribution an exact
//     replay, not an approximation, so a hit returns byte-identical output
//     at zero simulation cost.
//   - The HTTP handlers expose GET /scenarios, POST /jobs (batch), GET
//     /jobs/{id} (with NDJSON progress streaming: trials completed plus the
//     running bias estimate under its Wilson interval), DELETE /jobs/{id},
//     /healthz, and a /statz (alias /metrics) stats endpoint reporting
//     cache hit rate, worker utilization, and trial throughput.
//
// The package is re-exported for library users as repro.Serve and
// repro.NewServiceClient.
package service
