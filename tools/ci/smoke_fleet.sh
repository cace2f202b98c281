#!/usr/bin/env bash
# Fleet telemetry smoke: run resilient_service --serve-streams with the
# sampling profiler armed, drive it with stream_client, and check /fleet,
# /metrics, /healthz, /profile, fleet_top and profile_render, then validate
# the /fleet document schema.
#
#   tools/ci/smoke_fleet.sh <build-dir>
#
# Artifacts (in the working directory): fleet_service.log,
# stream_client.log, stream_client_load.log, FLEET_live.json,
# FLEET_top.txt, FLEET_top_from.txt, FLEET_profiled.json,
# PROFILE_1s.folded, PROFILE_live.folded and PROFILE_hotspots.txt.

source "$(dirname "$0")/common.sh"

# MVREJU_PROFILE=500: arm the sampling profiler at 2 kHz so even a short
# smoke load lands enough samples for /profile to assert on.
start_service fleet_service.log env MVREJU_PROFILE=500 \
  "${BUILD}/examples/resilient_service" --serve-streams --port 18090 \
  --serve 18081 --hold-seconds 60
wait_ready 30 "fleet service exited early" "/fleet never became available" \
  curl -sf http://127.0.0.1:18081/fleet -o /dev/null
"${BUILD}/examples/stream_client" --port 18090 --frames 25 --seed 3 \
  --trace > stream_client.log 2>&1 || fail "stream_client failed"
grep -q "stages:" stream_client.log \
  || fail "no stage annex in stream_client output"
# The server republishes /fleet on a 250 ms throttle; poll until the
# client's frames show up instead of racing the next publish.
settled=0
for _ in $(seq 1 20); do
  curl -sf http://127.0.0.1:18081/fleet -o FLEET_live.json \
    || fail "scraping /fleet failed"
  frames="$(python3 -c 'import json; print(json.load(open("FLEET_live.json"))["frames"])')"
  if [ "${frames}" -ge 25 ]; then
    settled=1
    break
  fi
  sleep 1
done
[ "${settled}" -eq 1 ] || fail "/fleet never reflected the client frames"
# Scrape into a variable before matching: under pipefail, `curl | grep -q`
# fails whenever grep exits on its first match while curl is still writing.
metrics="$(curl -sf http://127.0.0.1:18081/metrics)" \
  || fail "scraping /metrics failed"
grep -q "mvreju_serve_stage_" <<< "${metrics}" \
  || fail "no serve.stage.* histograms on /metrics"
healthz="$(curl -sf http://127.0.0.1:18081/healthz)" \
  || fail "scraping /healthz failed"
grep -q '"modules"' <<< "${healthz}" \
  || fail "server health aggregate missing from /healthz"
"${BUILD}/tools/fleet_top" --port 18081 --once > FLEET_top.txt \
  || fail "fleet_top --once failed"
"${BUILD}/tools/fleet_top" --from FLEET_live.json > FLEET_top_from.txt \
  || fail "fleet_top --from failed"
grep -q "worst streams" FLEET_top_from.txt \
  || fail "dashboard render incomplete"
# Sampling profiler: scrape /profile while a second client keeps the
# service busy, then assert the folded stacks reached into the inference
# kernels and the stage tags attributed the load.
"${BUILD}/examples/stream_client" --port 18090 --frames 2000 --seed 7 \
  > stream_client_load.log 2>&1 &
LOAD_PID=$!
curl -sf 'http://127.0.0.1:18081/profile?seconds=1' \
  -o PROFILE_1s.folded || fail "scraping /profile?seconds=1 failed"
wait "${LOAD_PID}" || fail "load-generating stream_client failed"
curl -sf 'http://127.0.0.1:18081/profile?seconds=30' \
  -o PROFILE_live.folded || fail "scraping /profile failed"
[ -s PROFILE_live.folded ] || fail "/profile returned no samples"
grep -q "sgemm" PROFILE_live.folded \
  || fail "no GEMM frame in the folded profile (symbolization broke?)"
grep -Eq "^(parse|infer|vote|tx);" PROFILE_live.folded \
  || fail "no stage-tagged samples in the folded profile"
"${BUILD}/tools/profile_render" --top 15 PROFILE_live.folded \
  > PROFILE_hotspots.txt || fail "profile_render failed"
grep -q "by stage:" PROFILE_hotspots.txt \
  || fail "profile_render output incomplete"
# The serving loop folds the profiler's attribution into /fleet.
curl -sf http://127.0.0.1:18081/fleet -o FLEET_profiled.json \
  || fail "scraping /fleet after load failed"
grep -q '"cpu_by_stage"' FLEET_profiled.json \
  || fail "no cpu_by_stage block in /fleet while profiling"
stop_service

python3 - <<'PY'
import json

with open("FLEET_live.json") as f:
    doc = json.load(f)
assert doc["schema"] == "mvreju.fleet.v1"
assert doc["frames"] >= 25, doc["frames"]
assert doc["streams"] >= 1
assert set(doc["status"]) == {
    "decided", "skipped", "no_output", "shed", "error"}
assert sum(doc["status"].values()) == doc["frames"]
stage_names = {"parse", "queue", "dispatch", "infer", "vote", "tx",
               "total"}
assert set(doc["stages"]) == stage_names
total = doc["stages"]["total"]
assert total["count"] > 0
assert total["max_ms"] >= total["p99_ms"] >= total["p50_ms"] >= 0
assert set(doc["breach_by_stage"]) == stage_names - {"total"}
for w in doc["worst_streams"]:
    assert 0.0 <= w["reliability"] <= 1.0
assert doc["meta"]["git_sha"], "fleet document missing build info"
print(f"/fleet OK: frames={doc['frames']} streams={doc['streams']}")
PY
