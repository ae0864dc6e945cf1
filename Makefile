.PHONY: all build test bench-pipeline bench-pipeline-smoke bench-serve bench-serve-smoke oracle oracle-smoke check clean

all: build

build:
	dune build

test:
	dune runtest

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

# Full axiomatic oracle: certify every generated/classic test and run
# the simulator soundness matrix over the whole library (minutes).
oracle:
	dune exec bin/mcmutants.exe -- oracle --jobs 4

# Oracle at CI speed: reduced device/env matrix, 1 iteration. Still
# certifies all 73 tests and exits non-zero on any violation.
oracle-smoke:
	dune exec bin/mcmutants.exe -- oracle --smoke --jobs 2

# The one target CI needs: build, full test suite, the two smoke
# benches, smoke oracle.
check: build test bench-pipeline-smoke bench-serve-smoke oracle-smoke

clean:
	dune clean
	rm -f BENCH_pipeline.json BENCH_serve.json
	rm -rf _bench_pipeline _bench_serve
