#!/bin/sh
# Builds the benchmark from the sources of this checkout, then runs it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh perfbench/run.sh reference     # rebuild perfbench/reference.tsv
#   sh perfbench/run.sh selftest
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2
# Traced runs read GC pauses from the runtime's event ring; a larger ring
# (2^18 words per domain) keeps a long query from overrunning it.
case " $* " in
*" --trace 1 "*) OCAMLRUNPARAM="${OCAMLRUNPARAM:+$OCAMLRUNPARAM,}e=18"; export OCAMLRUNPARAM ;;
esac
exec ./_build/default/perfbench/main.exe "$@"
