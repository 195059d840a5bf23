# Repository tasks. Everything here is also what CI runs; keeping the
# recipes in one place means a green `make check` locally predicts a green
# pipeline.

GO ?= go

.PHONY: build fmt-check test race check docs-check bench bench-tagged bench-gate certify-smoke certify-golden fleet-smoke dsl-smoke profile

build:
	$(GO) build ./...

# fmt-check fails on any file gofmt would rewrite, exactly as CI's gofmt
# step does.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/engine/ ./internal/ring/ ./internal/cointoss/ ./internal/scenario/ ./internal/service/ ./internal/popproto/ ./internal/mardsl/... ./internal/shamir/ ./internal/fullnet/

# docs-check is the documentation floor: vet must be clean, every package
# (internal/, cmd/, examples/ and the root) must carry a package doc
# comment, every exported identifier of the public root API must carry a
# doc comment, and new exported root functions must take at most three
# positional parameters (spec/options structs beyond that; deprecated
# wrappers and //doccheck:allow-positional waivers exempt). CI runs this on
# every push.
docs-check:
	$(GO) vet ./...
	$(GO) run ./internal/tools/doccheck -pkgdoc . -apicheck . .

check: fmt-check build docs-check test race

# service-smoke is the daemon's end-to-end acceptance run: build the real
# fleserve binary, boot it on an ephemeral port, drive a 100-job concurrent
# batch (20 distinct scenarios × 5 copies), and verify completion, a cache
# hit-rate ≥ 0.8, byte-identical replays, and agreement with direct
# in-process scenario runs. CI runs this on every push.
service-smoke:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) run ./internal/tools/servicesmoke -bin bin/fleserve

# certify-smoke is the certification layer's end-to-end acceptance run:
# boot the real fleserve binary, drive a 10-scenario POST /certify batch,
# and verify streamed per-candidate progress, decisive verdicts, and
# byte-identical certificate cache replays. CI runs this on every push.
certify-smoke:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) run ./internal/tools/certsmoke -bin bin/fleserve

# fleet-smoke is the multi-node acceptance run: boot a real coordinator
# plus two real workers sharing one disk cache directory, kill a worker
# mid-job, and verify byte identity with a direct single-node run, a clean
# fleload mixed batch, and a coordinator restart that replays everything
# from disk with zero engine runs. CI runs this on every push.
fleet-smoke:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) build -o bin/fleload ./cmd/fleload
	$(GO) run ./internal/tools/fleetsmoke -bin bin/fleserve -load bin/fleload

# dsl-smoke is the MAR spec pipeline's end-to-end acceptance run: generate
# a protocol and an adversary spec from a fixed seed, boot the real
# fleserve binary with them on its -mar flag, and verify the daemon serves
# the generated scenarios byte-identically to direct in-process runs and
# certifies the generated adversary. CI runs this on every push.
dsl-smoke:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) run ./internal/tools/dslsmoke -bin bin/fleserve

# certify-golden regenerates the committed full-catalog certification
# table. The sweep is deterministic (fixed seed, worker-independent
# stopping points), so the nightly pipeline diffs a fresh run against the
# committed file byte-for-byte.
certify-golden:
	$(GO) run ./cmd/flecert -seed 20180516 -format markdown > CERTIFICATES.md

# bench records the benchmark suite to BENCH_<date>.json/.txt (see
# bench.sh); bench-tagged keeps several recordings from one day apart, e.g.
# `make bench-tagged TAG=arena`.
bench:
	./bench.sh

bench-tagged:
	BENCH_TAG=$(TAG) ./bench.sh

# bench-gate guards against performance regressions: it re-times the gate
# benchmarks (E1, E9, E11, Committee10k) and fails if their ns/op geomean
# regressed more than 15% against the committed BENCH baseline
# (BENCH_BASELINE overrides
# the default, the newest committed BENCH_*.txt). CI runs it on every push.
bench-gate:
	$(GO) run ./internal/tools/benchgate -baseline "$(BENCH_BASELINE)"

# profile captures a CPU profile of the live service daemon under an
# E5-shaped load: build fleserve, boot it with -pprof, saturate the engine
# with honest A-LEADuni batches at n=64, and pull /debug/pprof/profile into
# bench/e5.cpu.pprof (inspect with `go tool pprof bench/e5.cpu.pprof`).
profile:
	$(GO) build -o bin/fleserve ./cmd/fleserve
	$(GO) run ./internal/tools/profcapture -bin bin/fleserve -out bench/e5.cpu.pprof
