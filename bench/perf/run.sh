#!/usr/bin/env bash
# Build dpcc and the benchmark program (perf.exe) from source, then run it
# from the repository root.  Arguments go to `perf.exe run`, e.g.
#   bash bench/perf/run.sh --workload serve --seed 7 --seconds 10 --trace 0
# Everything it writes stays under the repository: _build/ and _perf/.
set -eu
root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -f bin/dpcc.ml ]; then
  echo "run.sh: $root holds no dpower source tree to build" >&2
  exit 2
fi
export TMPDIR="$root/_perf/tmp"
mkdir -p "$TMPDIR"
DUNE_CACHE=disabled dune build --root . ./bin/dpcc.exe ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe run "$@"
