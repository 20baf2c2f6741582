#!/usr/bin/env bash
# Build gcatch, gcatchd and the benchmark from source, then run the
# benchmark with the given arguments, from the root of the checkout.
#
#   bash perfbench/run.sh --workload edit --seed 1 --seconds 15 --trace 0
#
# The build log goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.  Everything is built and written inside the
# checkout: dune's shared cache is off and temporary files go under
# .perfbench/.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a gcatch checkout (no dune-project, lib/ or bin/)" >&2
  exit 2
fi

mkdir -p .perfbench/tmp
export TMPDIR="$PWD/.perfbench/tmp"
export DUNE_CACHE=disabled

if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi
"${dune[@]}" build --root . -j 2 \
  ./perfbench/main.exe ./bin/gcatch_cli.exe ./bin/gcatchd_cli.exe 1>&2

exec ./_build/default/perfbench/main.exe "$@"
