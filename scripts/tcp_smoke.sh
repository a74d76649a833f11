#!/usr/bin/env bash
# Multi-process transport smoke: launch 4 localhost worker processes via
# cmd/hssort's -launch convenience, sort a deterministic workload over
# real sockets, and assert the per-rank output digests are identical to
# the in-process sim oracle. This is the CI gate for the tcp backend's
# end-to-end correctness (wire codec, bootstrap, exchange, merge).
#
# Runs twice: once on int64 keys (fixed-size wire records) and once on
# variable-length byte-string keys (the hsswire/3 varlen codec and the
# prefix-code plane). A third pass is the failure-survival gate: one of
# four manually-launched workers kill -9s itself mid-exchange (a seeded
# -chaos crash), the survivors report the crash and wait out
# -rejoin-wait, the victim is respawned with -rejoin, and the healed
# fleet's digests still match the sim oracle.
#
# Usage: scripts/tcp_smoke.sh [keys-per-rank]
set -euo pipefail
cd "$(dirname "$0")/.."

N="${1:-50000}"
PROCS=4

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/hssort" ./cmd/hssort

# The launcher reserves the coordinator port before rank 0 rebinds it; a
# stray localhost process can lose that race, so retry once.
run_tcp() {
  "$tmp/hssort" -transport tcp -launch "local:$PROCS" "$@" \
    | sed -n 's/^\[rank [0-9]*\] \(digest .*\)/\1/p' | sort > "$tmp/tcp.digests"
}

check() {
  local label="$1"; shift
  "$tmp/hssort" -p "$PROCS" "$@" | grep '^digest' | sort > "$tmp/sim.digests"
  run_tcp "$@" || { echo "retrying after bootstrap race" >&2; run_tcp "$@"; }
  diff -u "$tmp/sim.digests" "$tmp/tcp.digests"
  echo "tcp == sim ($label): rank-identical output across $PROCS worker processes"
}

check "int64/powerskew, $N keys/rank" -n "$N" -dist powerskew -stream -eps 0.05 -seed 7 -digest
check "bytes/urllike, $((N / 5)) keys/rank" -n "$((N / 5))" -keys bytes -dist urllike -stream -eps 0.05 -seed 7 -digest

# Out-of-core passes: each worker sorts under a per-rank memory budget
# of a quarter of its shard (the dataset is 4x the budget), spilling
# compressed run files into a shared -spill-dir. The oracle is the
# fully in-memory sim sort — out-of-core output must be
# digest-identical to it — and the engines' Close must leave no
# orphaned run files behind. The first pass streams 1024-key chunks;
# the second sets only the budget, which streams at the default chunk
# size, so no rank holds its whole receive over real sockets.
ooc_pass() {
  local label="$1"; shift
  local budget=$((N * 8 / 4))
  local flags=(-n "$N" -dist powerskew "$@" -eps 0.05 -seed 7 -digest)
  "$tmp/hssort" -p "$PROCS" "${flags[@]}" | grep '^digest' | sort > "$tmp/sim.digests"
  rm -rf "$tmp/spill"
  mkdir -p "$tmp/spill"
  run_tcp "${flags[@]}" -mem-budget "$budget" -spill-dir "$tmp/spill" \
    || { echo "retrying after bootstrap race" >&2; run_tcp "${flags[@]}" -mem-budget "$budget" -spill-dir "$tmp/spill"; }
  diff -u "$tmp/sim.digests" "$tmp/tcp.digests"
  local leftover
  leftover=$(find "$tmp/spill" -type f | head)
  if [ -n "$leftover" ]; then
    echo "orphaned spill run files after the fleet closed:" >&2
    echo "$leftover" >&2
    return 1
  fi
  echo "tcp out-of-core ($label, budget $budget B/rank, 4x data) == in-memory sim: rank-identical output, spill dir clean"
}
ooc_pass "-stream -chunk 1024" -stream -chunk 1024
ooc_pass "budget only"

# Failure-survival pass: kill one worker mid-sort, respawn it, and
# assert the healed fleet's output is still digest-identical to sim.
# The victim's -chaos crash is a real SIGKILL of its own process at its
# first exchange-phase send of the first of two sorts; the survivors'
# -rejoin-wait makes them retry that sort once the respawned victim
# rejoins the mesh.
kill_respawn() {
  local victim=2
  local coord="127.0.0.1:$(( (RANDOM % 20000) + 20000 ))"
  local flags=(-transport tcp -p "$PROCS" -n "$((N / 5))" -dist powerskew -stream
               -eps 0.05 -seed 7 -digest -repeat 2 -peer-timeout 5s -rejoin-wait 60s)
  local pids=() r
  rm -f "$tmp"/worker*.out
  for r in $(seq 0 $((PROCS - 1))); do
    if [ "$r" -eq "$victim" ]; then
      timeout 120 "$tmp/hssort" "${flags[@]}" -coordinator "$coord" -rank "$r" \
        -chaos "9:crash=$victim@exchange" > "$tmp/victim.first.out" 2>&1 &
    else
      timeout 120 "$tmp/hssort" "${flags[@]}" -coordinator "$coord" -rank "$r" \
        > "$tmp/worker$r.out" &
    fi
    pids[$r]=$!
  done
  if wait "${pids[$victim]}"; then
    echo "victim exited cleanly; the chaos crash never fired" >&2
    return 1
  fi
  echo "rank $victim killed itself mid-exchange; respawning it with -rejoin" >&2
  timeout 120 "$tmp/hssort" "${flags[@]}" -coordinator "$coord" -rank "$victim" \
    -rejoin > "$tmp/worker$victim.out" &
  pids[$victim]=$!
  for r in $(seq 0 $((PROCS - 1))); do
    wait "${pids[$r]}" || { echo "worker $r failed after the respawn" >&2; return 1; }
  done
  "$tmp/hssort" -p "$PROCS" -n "$((N / 5))" -dist powerskew -stream -eps 0.05 -seed 7 -digest \
    | grep '^digest' | sort > "$tmp/sim.digests"
  cat "$tmp"/worker*.out | grep '^digest' | sort > "$tmp/tcp.digests"
  diff -u "$tmp/sim.digests" "$tmp/tcp.digests"
  echo "tcp == sim after kill -9 + respawn + rejoin: rank-identical output across $PROCS worker processes"
}

# The ephemeral coordinator port is picked blindly; retry once if a
# stray localhost process owns it (same race the -launch passes retry).
kill_respawn || { echo "retrying the kill/respawn pass" >&2; kill_respawn; }
