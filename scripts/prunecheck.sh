#!/bin/sh
# Differential proof that the pruned organization search is
# exhaustive-equivalent: replays the full cell x temperature x layer golden
# grid through both the exhaustive test reference (optimizeExhaustive) and the
# production pruned path, asserting bit-identical Result selection, plus
# the admissibility property test behind the bound and the staircase/
# quadratic Pareto filter equivalence — all under the race detector, since
# the family ranking memo and the characterization pool run concurrently
# in production sweeps. Non-short mode, so the grid is not sampled.
set -eu

go test -race -count=1 -v \
  -run 'TestPrunedMatchesExhaustive|TestLowerBoundAdmissible|TestParetoFilterEquivalence|TestParetoDifferential' \
  ./internal/array/

echo "prunecheck OK: pruned search matches the exhaustive reference on the full grid"
