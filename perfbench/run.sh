#!/usr/bin/env bash
# Build the benchmark and the server from source, then run it:
#   bash perfbench/run.sh --workload sum-2attr --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base/*.json -- change/*.json
# Run from the repository root. Build output goes to stderr, so the last
# line on stdout is the benchmark's own result.
set -euo pipefail
cd "$(dirname "$0")/.."
# The dune cache lives outside the checkout; keep every write inside it.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/sagma_bench.exe ./bin/sagma_server.exe 1>&2
case "${1:-}" in
  run|compare) exec ./_build/default/perfbench/sagma_bench.exe "$@" ;;
  *) exec ./_build/default/perfbench/sagma_bench.exe run "$@" ;;
esac
