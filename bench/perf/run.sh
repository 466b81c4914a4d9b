#!/usr/bin/env bash
# Build epicd and epicbench from source, then run one benchmark workload:
#
#   bash bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root.  Build output goes to stderr; stdout
# ends with epicbench's one-line JSON result.  --trace 1 makes the traced
# run, whose Chrome trace lands in _build/epicbench/.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bench/perf/dune ]; then
  echo "run.sh: run from the root of a complete checkout of the repository" >&2
  exit 2
fi

args=()
trace=0
workload=all
seed=1
while [ $# -gt 0 ]; do
  case "$1" in
    --trace) trace="$2"; shift 2 ;;
    --workload) workload="$2"; args+=("$1" "$2"); shift 2 ;;
    --seed) seed="$2"; args+=("$1" "$2"); shift 2 ;;
    *) args+=("$1"); shift ;;
  esac
done

dune build --root . bin/epicd.exe bench/perf/epicbench.exe 1>&2
if [ "$trace" = 1 ]; then
  mkdir -p _build/epicbench
  args+=(--trace "_build/epicbench/trace-$workload-$seed.json")
fi
exec ./_build/default/bench/perf/epicbench.exe run "${args[@]}"
