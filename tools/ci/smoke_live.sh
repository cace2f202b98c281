#!/usr/bin/env bash
# Live observability smoke: boot the scripted resilient_service demo with
# the exporter and flight recorder armed, scrape /healthz, /metrics and a
# forced /record dump, validate all three, and render the dump with the
# postmortem CLI.
#
#   tools/ci/smoke_live.sh <build-dir>
#
# Artifacts (in the working directory): service.log, HEALTHZ_live.json,
# METRICS_live.txt, RECORD_live.json, POSTMORTEM_live.json and the
# postmortem-*.json dumps.

source "$(dirname "$0")/common.sh"

# The exporter answers /healthz from start-up, while the models still train;
# the service is healthy once its first frame has published module states.
service_healthy() {
  curl -sf http://127.0.0.1:18080/healthz -o HEALTHZ_live.json \
    && grep -q '"modules"' HEALTHZ_live.json
}

start_service service.log \
  "${BUILD}/examples/resilient_service" --serve 18080 --flight . \
  --train-count 400 --test-count 80 --epochs 2 --count 60 --hold-seconds 60
wait_ready 90 "resilient_service exited before becoming healthy" \
  "resilient_service never became healthy" service_healthy
curl -sf http://127.0.0.1:18080/metrics -o METRICS_live.txt \
  || fail "scraping /metrics failed"
curl -sf http://127.0.0.1:18080/record -o RECORD_live.json \
  || fail "forcing /record dump failed"
kill -0 "${SERVICE_PID}" 2>/dev/null \
  || fail "resilient_service crashed while serving"
stop_service

python3 - <<'PY'
import json, re

with open("METRICS_live.txt") as f:
    exposition = f.read()
line_re = re.compile(
    r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.eE+]+|[+]Inf|NaN))$")
for line in exposition.strip().splitlines():
    assert line_re.match(line), f"bad exposition line: {line!r}"
assert "mvreju_build_info{" in exposition
assert "# TYPE" in exposition
print(f"/metrics OK: {len(exposition.splitlines())} lines")

with open("HEALTHZ_live.json") as f:
    health = json.load(f)
assert health["status"] in ("ok", "degraded", "critical")
assert health["meta"]["git_sha"], "healthz missing build info"
assert health["uptime_seconds"] >= 0
print(f"/healthz OK: status={health['status']}")

with open("RECORD_live.json") as f:
    dump_path = json.load(f)["dumped"]
with open(dump_path) as f:
    dump = json.load(f)
assert dump["reason"] == "forced"
assert dump["meta"]["git_sha"], "dump missing build info"
assert dump["threads"], "dump has no event rings"
assert sum(len(t["events"]) for t in dump["threads"]) > 0
print(f"/record OK: dump at {dump_path}")
PY

DUMP_PATH="$(python3 -c 'import json; print(json.load(open("RECORD_live.json"))["dumped"])')"
cp "${DUMP_PATH}" POSTMORTEM_live.json
"${BUILD}/tools/postmortem" POSTMORTEM_live.json
