#!/usr/bin/env bash
# Stage-coverage check on perfbench's serve_camera workload: a traced run
# must answer every frame correctly, and the server's stages plus the
# client's own time must cover at least 90% of client latency at p50
# (net.covered_share). A lower share means a wait on the reply path that no
# stage names, such as replies held behind the client's delayed ACK.
#
#   tools/ci/stage_coverage.sh <perfbench-build-root>
#
# <perfbench-build-root> is perfbench/run.py's CARGO_TARGET_DIR (.bench_build
# by default); the run builds there incrementally. Artifacts (in the working
# directory): COVERAGE_serve_camera.txt (the run's stdout, whose last line is
# its JSON result) and COVERAGE_serve_camera.log (build output).

source "$(dirname "$0")/common.sh"

REPO="$(cd "$(dirname "$0")/../.." && pwd)"
SMOKE_LOG=COVERAGE_serve_camera.txt
status=0
CARGO_TARGET_DIR="${BUILD}" python3 "${REPO}/perfbench/run.py" \
  --workload serve_camera --seed 1 --seconds 4 --trace 1 \
  > COVERAGE_serve_camera.txt 2> COVERAGE_serve_camera.log || status=$?

python3 - <<'PY' || fail "serve_camera stage coverage check failed"
import json
import sys

with open("COVERAGE_serve_camera.txt") as f:
    lines = f.read().splitlines()
try:
    result = json.loads(lines[-1])
    share = result["metrics"]["net.covered_share"]["value"]
except (IndexError, ValueError, KeyError, TypeError) as error:
    sys.exit(f"no JSON result with net.covered_share on the last line ({error!r})")
correct, failed = result["correct"], result["failed"]
print(f"correct={correct} failed={failed} net.covered_share={share:.3f}")
if correct is not True:
    sys.exit("an output check failed")
if failed != 0:
    sys.exit(f"{failed} frames failed")
if share < 0.90:
    sys.exit(f"stages cover {share:.1%} of client latency at p50, below 90%")
PY
[ "${status}" -eq 0 ] || fail "perfbench exited with status ${status}"
echo "serve_camera stage coverage OK"
