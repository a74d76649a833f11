#!/usr/bin/env bash
# Daemon smoke: boot hssortd on a free port, post one job whose keys
# precede its keyType, drive it with the HTTP client example (concurrent
# jobs from two tenants, int64 and bytes keys, every output diffed
# against a locally sorted copy), assert the plan cache shows up in
# /metrics, probe admission control on a daemon with a tiny queue (429s
# under flood), check that a daemon started with -transport sim sorts on
# the byte-accounted transport (a job reports nonzero totalBytes), and
# check the SIGTERM drain: admitted jobs finish and the process exits 0. This is the CI gate for the sort-as-a-service
# surface (internal/server + cmd/hssortd).
#
# Usage: scripts/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
pids=()
cleanup() {
	for pid in "${pids[@]:-}"; do
		kill -9 "$pid" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/hssortd" ./cmd/hssortd
go build -o "$tmp/serviceclient" ./examples/serviceclient

# start_daemon LOGFILE [flags...] — boots hssortd on a free port and
# leaves the bound address in DADDR and the pid in DPID (globals, since
# a command substitution would fork the pid bookkeeping into a
# subshell).
start_daemon() {
	local log="$1"
	shift
	"$tmp/hssortd" -listen 127.0.0.1:0 "$@" >"$log" 2>&1 &
	DPID=$!
	pids+=("$DPID")
	DADDR=""
	for _ in $(seq 1 100); do
		DADDR="$(sed -n 's/^listening on //p' "$log" | head -n 1)"
		[ -n "$DADDR" ] && break
		sleep 0.1
	done
	if [ -z "$DADDR" ]; then
		echo "daemon failed to start:" >&2
		cat "$log" >&2
		exit 1
	fi
}

metric() { # metric NAME ADDR — prints the metric's value
	curl -sf "http://$2/metrics" | awk -v name="$1" '$1 == name {print $2}'
}

# --- Daemon 1: the serving path. -------------------------------------
start_daemon "$tmp/d1.log"
addr=$DADDR
d1=$DPID
echo "== daemon up on $addr"

[ "$(curl -sf "http://$addr/healthz")" = ok ] || { echo "healthz not ok"; exit 1; }

# The body is parsed in one pass whatever its member order: a job whose
# keys arrive ahead of its keyType must sort like any other.
reply="$(curl -sf -X POST "http://$addr/v1/jobs" \
	-d '{"keys":[30,-10,20],"wait":true,"tenant":"smoke","keyType":"int64"}')"
sorted="$(echo "$reply" | sed -n 's/.*"shards":\(.*\)}}$/\1/p' | tr -d '[]' | tr -s ',' | sed 's/^,//; s/,$//')"
if [ "$sorted" != "-10,20,30" ] || ! echo "$reply" | grep -q '"status":"done"'; then
	echo "keys-before-keyType job came back wrong: $reply" >&2
	exit 1
fi
echo "== keys ahead of keyType: sorted $sorted"

# Concurrent two-tenant jobs, digest-diffed against the library path,
# plus the plan-cache repeat (asserts planCache=hit, rounds=0).
"$tmp/serviceclient" -addr "$addr"

hits="$(metric hssortd_plan_cache_hits_total "$addr")"
if [ -z "$hits" ] || [ "$hits" -lt 1 ]; then
	echo "expected plan cache hits >= 1 in /metrics, got '${hits:-none}'" >&2
	exit 1
fi
rounds0="$(curl -sf "http://$addr/metrics" | grep 'hssortd_last_sort_rounds{tenant="metrics"}' | awk '{print $2}')"
if [ "$rounds0" != 0 ]; then
	echo "expected the recurring tenant's last sort to reuse its plan (0 rounds), got '$rounds0'" >&2
	exit 1
fi
for tenant in metrics search; do
	curl -sf "http://$addr/metrics" | grep -q "hssortd_jobs_total{status=\"done\",tenant=\"$tenant\"}" \
		|| { echo "no done jobs recorded for tenant $tenant" >&2; exit 1; }
done
echo "== plan cache: $hits hits, recurring tenant at 0 rounds"

# --- Daemon 2: admission control and drain. --------------------------
start_daemon "$tmp/d2.log" -queue 2 -concurrency 1 -tenant-jobs 1
addr2=$DADDR
d2=$DPID
echo "== small-queue daemon up on $addr2"

flood_out="$("$tmp/serviceclient" -addr "$addr2" -flood 12)"
echo "$flood_out"
refused="$(echo "$flood_out" | sed -n 's/.* \([0-9]*\) refused with 429.*/\1/p')"
if [ -z "$refused" ] || [ "$refused" -lt 1 ]; then
	echo "expected at least one 429 from the flood" >&2
	exit 1
fi
rejected="$(metric hssortd_rejected_total "$addr2")"
[ "$rejected" = "$refused" ] || { echo "metrics rejected=$rejected but client saw $refused" >&2; exit 1; }

# SIGTERM while flood jobs are still queued/running: the daemon must
# finish the admitted jobs, log the drain, and exit 0.
kill -TERM "$d2"
if ! wait "$d2"; then
	echo "daemon 2 exited non-zero on SIGTERM" >&2
	cat "$tmp/d2.log" >&2
	exit 1
fi
grep -q "drained, exiting" "$tmp/d2.log" || { echo "daemon 2 never logged the drain"; cat "$tmp/d2.log"; exit 1; }
echo "== small-queue daemon drained cleanly under SIGTERM"

# --- Daemon 3: the transport flag reaches the engines. ---------------
# Only sim counts bytes, so a nonzero totalBytes shows the daemon sorted
# on it rather than on inproc.
start_daemon "$tmp/d3.log" -transport sim
d3=$DPID
reply="$(curl -sf -X POST "http://$DADDR/v1/jobs" \
	-d '{"tenant":"smoke","keyType":"int64","keys":[5,1,9,3,7,2,8,4,6,0],"wait":true}')"
total="$(echo "$reply" | sed -n 's/.*"totalBytes":\([0-9]*\).*/\1/p')"
if [ -z "$total" ] || [ "$total" -eq 0 ]; then
	echo "sim daemon's job reported totalBytes '${total:-none}', want > 0: $reply" >&2
	exit 1
fi
kill -TERM "$d3"
wait "$d3" || { echo "daemon 3 exited non-zero on SIGTERM" >&2; cat "$tmp/d3.log" >&2; exit 1; }
echo "== -transport sim daemon: job moved $total bytes"

# --- Drain daemon 1 too. ---------------------------------------------
kill -TERM "$d1"
if ! wait "$d1"; then
	echo "daemon 1 exited non-zero on SIGTERM" >&2
	cat "$tmp/d1.log" >&2
	exit 1
fi
grep -q "drained, exiting" "$tmp/d1.log" || { echo "daemon 1 never logged the drain"; cat "$tmp/d1.log"; exit 1; }

pids=()
echo "serve smoke passed: concurrent tenants digest-clean, plan cache hit with 0 rounds, flood shed $refused jobs with 429, sim daemon counted $total bytes, SIGTERM drained every daemon"
