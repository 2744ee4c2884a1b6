#!/usr/bin/env bash
# ci/threads-diff.sh <gossip-sim flags...>
#
# The thread-count contract through the release binary: run the given
# scenario at --threads 1 and at --threads 8 and require the run lines to
# be byte-identical once the two fields that may differ (wall_ms, threads)
# are stripped. --threads 8 is clamped to the runner's cores with a
# warning on stderr, which is fine: results never depend on the clamp.
set -euo pipefail

run() {
  ./target/release/gossip-sim "${@:2}" --threads "$1" \
    | sed 's/"wall_ms":[0-9]*//; s/"threads":[0-9]*//'
}
# Captured, not process-substituted: a run that fails must fail the step.
one=$(run 1 "$@")
eight=$(run 8 "$@")
diff <(echo "$one") <(echo "$eight")
