#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash gistbench/run.sh --workload bugbase|ingest|service --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout of the repository (the directory that
# holds dune-project).  Everything it writes stays there: the dune build
# tree (_build, no shared dune cache), the runtime-events ring of a
# traced run, and the spans under .gistbench/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [[ ! -f "$root/dune-project" || ! -d "$root/lib" ]]; then
  echo "gistbench: $root is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
cd "$root"

dune build --root . --cache=disabled --display=quiet ./gistbench/main.exe >&2

export GISTBENCH_NPROC
GISTBENCH_NPROC=$(nproc 2>/dev/null || echo unknown)
export GISTBENCH_COMMIT
if [[ -d .git ]]; then
  GISTBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
else
  GISTBENCH_COMMIT=unknown
fi
# A 2^19-word runtime-events ring holds a traced bugbase slot's GC
# events between polls.
export OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}e=19"
export OCAML_RUNTIME_EVENTS_DIR="$root/_build"

exec ./_build/default/gistbench/main.exe "$@"
