# Helpers shared by the live smoke scripts in tools/ci/. Each script runs
# from the directory that should receive its artifacts and takes the build
# directory as its only argument.

set -euo pipefail

BUILD="${1:?usage: $0 <build-dir>}"
SMOKE_LOG=""
SERVICE_PID=""

# fail MESSAGE: report a GitHub error annotation, print the service log, exit.
fail() {
  echo "::error::$1"
  echo "---- ${SMOKE_LOG} ----"
  cat "${SMOKE_LOG}" || true
  exit 1
}

# start_service LOG CMD...: run CMD in the background, its output in LOG.
# The service is killed when the script exits, whatever the outcome.
start_service() {
  SMOKE_LOG="$1"
  shift
  "$@" > "${SMOKE_LOG}" 2>&1 &
  SERVICE_PID=$!
  trap 'kill "${SERVICE_PID}" 2>/dev/null || true' EXIT
}

# wait_ready TRIES EXITED NEVER CMD...: retry CMD once a second until it
# succeeds. Fails with EXITED when the service dies first, and with NEVER
# when TRIES attempts all fail.
wait_ready() {
  local tries="$1" exited="$2" never="$3"
  shift 3
  for _ in $(seq 1 "${tries}"); do
    kill -0 "${SERVICE_PID}" 2>/dev/null || fail "${exited}"
    if "$@"; then
      return 0
    fi
    sleep 1
  done
  fail "${never}"
}

# stop_service: stop the background service and reap it.
stop_service() {
  kill "${SERVICE_PID}"
  wait "${SERVICE_PID}" || true
}
