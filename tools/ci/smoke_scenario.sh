#!/usr/bin/env bash
# Degraded-mode scenario smoke: replay the `blank` sensor-failure scenario
# through the AV loop with the trust monitor and policy ladder engaged,
# check that the av.trust.* and av.degraded.* series reach /metrics, and
# that a forced dump holds sensor_fault and degraded_mode events.
#
#   tools/ci/smoke_scenario.sh <build-dir>
#
# Artifacts (in the working directory): scenario_service.log,
# METRICS_scenario.txt, RECORD_scenario.json and flight_scenario/.

source "$(dirname "$0")/common.sh"

trust_metrics_live() {
  curl -sf http://127.0.0.1:18082/metrics -o METRICS_scenario.txt \
    && grep -q "mvreju_av_trust_reliability" METRICS_scenario.txt
}

mkdir -p flight_scenario
start_service scenario_service.log \
  "${BUILD}/examples/resilient_service" --scenario blank --seed 7 \
  --train-count 600 --epochs 2 --cache .mvreju_cache \
  --serve 18082 --flight flight_scenario --hold-seconds 90
wait_ready 120 "scenario replay exited before serving metrics" \
  "av.trust.* metrics never appeared on /metrics" trust_metrics_live
grep -q "mvreju_av_trust_sensor_faults" METRICS_scenario.txt \
  || fail "av.trust.sensor_faults counter missing from /metrics"
grep -q "mvreju_av_degraded_mode" METRICS_scenario.txt \
  || fail "av.degraded.* gauges missing from /metrics"
curl -sf http://127.0.0.1:18082/record -o RECORD_scenario.json \
  || fail "forcing /record dump failed"
stop_service

python3 - <<'PY'
import json

with open("RECORD_scenario.json") as f:
    dump_path = json.load(f)["dumped"]
with open(dump_path) as f:
    dump = json.load(f)
kinds = {}
for thread in dump["threads"]:
    for event in thread["events"]:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
assert kinds.get("sensor_fault"), f"no sensor_fault events: {kinds}"
assert kinds.get("degraded_mode"), f"no degraded_mode events: {kinds}"
print(f"flight events OK: {kinds}")
PY
