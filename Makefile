.PHONY: all build test bench bench-smoke bench-instance bench-instance-smoke bench-oracle bench-oracle-smoke bench-store bench-store-smoke bench-pipeline bench-pipeline-smoke bench-serve bench-serve-smoke bench-schemata bench-schemata-smoke bench-corpus bench-corpus-smoke bench-scope bench-scope-smoke oracle oracle-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

# Full benchmark suite (bechamel micro-benchmarks + serial-vs-parallel
# campaign benchmark + compiled-kernel benchmark; writes BENCH_*.json).
bench:
	dune exec bench/main.exe

# Parallel benchmark only, at 1 iteration per campaign — fast enough for
# CI; still checks bit-identity between serial and every domain count.
bench-smoke:
	MCM_BENCH_SMOKE=1 dune exec bench/main.exe

# Compiled instance kernel vs interpreter (writes BENCH_instance.json).
# Built with --profile release: the kernel's zero-allocation steady
# state needs cross-module inlining, which the dev profile's -opaque
# disables. Fails if the engines diverge, the direct kernel loop
# allocates, or the kernel campaign (role assignment to tally)
# allocates more than one minor word per instance.
bench-instance:
	MCM_BENCH_PART=instance dune exec --profile release bench/main.exe

# Same contract at CI speed (small instance counts).
bench-instance-smoke:
	MCM_BENCH_SMOKE=1 MCM_BENCH_PART=instance dune exec --profile release bench/main.exe

# Axiomatic-oracle benchmark (writes BENCH_oracle.json): enumeration
# throughput, the sharded allowed-set grid, and the engine ladder —
# both oracle engines count growing Library.ladder rungs (exact
# agreement asserted, speedup and asymptotic gap recorded), then race a
# certification on a 4-thread/16-instruction rung the brute-force
# engine cannot finish within a 10x budget. Fails if the engines
# disagree on any rung.
bench-oracle:
	MCM_BENCH_PART=oracle dune exec bench/main.exe

# Same agreement contract at CI speed: fast ladder rungs only, and the
# race runs on a smaller rung (its timeout is recorded, not asserted).
bench-oracle-smoke:
	MCM_BENCH_SMOKE=1 MCM_BENCH_PART=oracle dune exec bench/main.exe

# Campaign store: cold vs warm sweep plus crash recovery (writes
# BENCH_store.json into a scratch _bench_store/ directory). Fails if a
# stored sweep diverges from the uncached one, if the recovered store
# does not verify clean, or (non-smoke) if the warm rerun is under the
# 10x speedup contract.
bench-store:
	MCM_BENCH_PART=store dune exec bench/main.exe

# Same contracts at CI speed (the 10x floor is not asserted — smoke
# sweeps are too small to time meaningfully).
bench-store-smoke:
	MCM_BENCH_SMOKE=1 MCM_BENCH_PART=store dune exec bench/main.exe

# Unified pipeline dispatch overhead: the request -> plan -> execute
# path vs direct dispatch over the same campaign grid (writes
# BENCH_pipeline.json, scratch dir _bench_pipeline/). Fails if results
# diverge or (non-smoke) if cold/warm overhead exceeds 3%.
bench-pipeline:
	MCM_BENCH_PART=pipeline dune exec bench/main.exe

# Same bit-identity contract at CI speed (overhead is not asserted —
# one rep over a tiny grid measures timer noise, not dispatch cost).
bench-pipeline-smoke:
	MCM_BENCH_SMOKE=1 MCM_BENCH_PART=pipeline dune exec bench/main.exe

# Campaign service: the multi-client daemon vs the direct store path
# (writes BENCH_serve.json, scratch dir _bench_serve/). Fails if dedup
# computes any cell twice, if a warm grid misses, or (non-smoke) if
# 2-client aggregate throughput drops below 0.95x of the direct path or
# warm-hit latency exceeds 10 ms/cell.
bench-serve:
	MCM_BENCH_PART=serve dune exec bench/main.exe

# Same functional contracts (dedup, warm hits) at CI speed; the timing
# floors are not asserted.
bench-serve-smoke:
	MCM_BENCH_SMOKE=1 MCM_BENCH_PART=serve dune exec bench/main.exe

# Mutant-schemata plan vs per-cell compilation over a Table-4-shaped
# matrix (writes BENCH_schemata.json). Built with --profile release for
# the same inlining reasons as bench-instance. Fails if any cell's
# result diverges from the per-cell reference or (non-smoke) if the
# schema plan's sweep speedup is under the 2x contract.
bench-schemata:
	MCM_BENCH_PART=schemata dune exec --profile release bench/main.exe

# Same bit-identity contract at CI speed (the 2x floor is not asserted
# — the smoke matrix is too small to time meaningfully).
bench-schemata-smoke:
	MCM_BENCH_SMOKE=1 MCM_BENCH_PART=schemata dune exec --profile release bench/main.exe

# Generated litmus corpus: synthesis + oracle-certified admission
# throughput, byte-reproducibility across domain counts, and a
# generated-corpus campaign through the schemata plan with a store
# (writes BENCH_corpus.json, scratch dir _bench_corpus/). Fails if the
# two oracle engines disagree on any admission verdict, if seeded
# generation is not byte-reproducible, or if the warm campaign rerun is
# not served 100% from cache bit-identically.
bench-corpus:
	MCM_BENCH_PART=corpus dune exec bench/main.exe

# Same contracts at CI speed (a smaller shape; every contract is still
# asserted — none of them are timing floors).
bench-corpus-smoke:
	MCM_BENCH_SMOKE=1 MCM_BENCH_PART=corpus dune exec bench/main.exe

# Memory-scope bench (writes BENCH_scope.json): scoped allowed-sets
# bit-identical under both oracle engines across layouts, and the
# Scope_dropped bug injection detected by a device-scope conformance
# test exactly when testing spans workgroups, with both execution
# engines bit-identical. Exits 1 on any disagreement.
bench-scope:
	MCM_BENCH_PART=scope dune exec bench/main.exe

# Same contracts at CI speed (fewer iterations; every contract is still
# asserted).
bench-scope-smoke:
	MCM_BENCH_SMOKE=1 MCM_BENCH_PART=scope dune exec bench/main.exe

# Full axiomatic oracle: certify every generated/classic test and run
# the simulator soundness matrix over the whole library (minutes).
oracle:
	dune exec bin/mcmutants.exe -- oracle --jobs 4

# Oracle at CI speed: reduced device/env matrix, 1 iteration. Still
# certifies all 73 tests and exits non-zero on any violation.
oracle-smoke:
	dune exec bin/mcmutants.exe -- oracle --smoke --jobs 2

# The one target CI needs: build, full test suite, smoke benchmarks,
# smoke oracle.
check: build test bench-smoke bench-instance-smoke bench-oracle-smoke bench-store-smoke bench-pipeline-smoke bench-serve-smoke bench-schemata-smoke bench-corpus-smoke bench-scope-smoke oracle-smoke

clean:
	dune clean
	rm -f BENCH_parallel.json BENCH_oracle.json BENCH_instance.json BENCH_store.json BENCH_pipeline.json BENCH_serve.json BENCH_schemata.json BENCH_corpus.json BENCH_scope.json
	rm -rf _bench_store _bench_pipeline _bench_serve _bench_corpus
