#!/usr/bin/env bash
# Build the benchmark and the mcmutants binary it drives, then run it.
# Release profile: the instance kernel's allocation-free path needs the
# cross-module inlining the dev profile turns off. Run from the
# repository root, e.g.
#   bash perfbench/run.sh --workload corpus-e2e --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --list
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a full checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
# Nothing is written outside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --profile release ./perfbench/main.exe ./bin/mcmutants.exe >&2
exec ./_build/default/perfbench/main.exe --mcmutants ./_build/default/bin/mcmutants.exe "$@"
