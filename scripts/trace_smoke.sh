#!/bin/sh
# CI smoke test for the distributed tracing plane, over real processes:
# two thermflowd backends behind one thermflowgate. A job submitted
# under a client-minted X-Thermflow-Trace header must answer, through
# the gateway, one timeline holding the gateway's http.server spans and
# the owning backend's job.* spans, all under the client's trace ID
# (cross-process propagation, not per-process traces). Then a short
# thermload sweep must report its slowest requests' trace IDs, and the
# slowest v2 job must resolve through the gateway to a timeline
# carrying that exact trace ID. Fast (<60 s).
set -eu

port="${PORT:-18487}"
p1=$((port + 1))
p2=$((port + 2))
gw="http://127.0.0.1:$port"
b1="http://127.0.0.1:$p1"
b2="http://127.0.0.1:$p2"
tmp="$(mktemp -d)"
gpid=""
bpid1=""
bpid2=""
trap 'kill "${gpid:-}" "${bpid1:-}" "${bpid2:-}" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/thermflowd" ./cmd/thermflowd
go build -o "$tmp/thermflowgate" ./cmd/thermflowgate
go build -o "$tmp/tdfa" ./cmd/tdfa
go build -o "$tmp/thermload" ./cmd/thermload

"$tmp/thermflowd" -addr "127.0.0.1:$p1" >"$tmp/b1.log" 2>&1 &
bpid1=$!
"$tmp/thermflowd" -addr "127.0.0.1:$p2" >"$tmp/b2.log" 2>&1 &
bpid2=$!
"$tmp/thermflowgate" -addr "127.0.0.1:$port" -backends "$b1,$b2" \
	-state-dir "$tmp/gwstate" \
	-health-interval 300ms -eject-after 2 >"$tmp/gw.log" 2>&1 &
gpid=$!

i=0
until curl -s "$gw/gateway/backends" 2>/dev/null | grep -q '"ring_backends": *2'; do
	i=$((i + 1))
	[ "$i" -ge 50 ] && {
		echo "gateway pool did not come up"
		cat "$tmp/gw.log" "$tmp/b1.log" "$tmp/b2.log" 2>/dev/null
		exit 1
	}
	sleep 0.2
done
echo "smoke: gateway up, 2 backends on the ring"

# --- 1. Job under a client-minted trace -----------------------------
tid="00000000000000000000000000abcdef"
span="0000000000abcdef"
"$tmp/tdfa" -mega 8,2 -seed 7 -emit >"$tmp/mega.ir"
src="$(awk 'BEGIN{ORS="\\n"} {gsub(/\\/, "\\\\"); gsub(/"/, "\\\""); print}' "$tmp/mega.ir")"
printf '{"program":"%s"}' "$src" >"$tmp/job.json"

curl -s -D "$tmp/headers.txt" -X POST -H 'Content-Type: application/json' \
	-H "X-Thermflow-Trace: $tid-$span" \
	--data-binary "@$tmp/job.json" "$gw/v2/jobs" >"$tmp/submit.json"
id="$(sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p' "$tmp/submit.json" | head -1)"
[ -n "$id" ] || { echo "smoke: submit answered no job id:"; cat "$tmp/submit.json"; exit 1; }

# The response continues the client's trace with a fresh server span.
grep -i "x-thermflow-trace: *$tid-" "$tmp/headers.txt" >/dev/null ||
	{ echo "smoke: response did not continue the client trace:"; cat "$tmp/headers.txt"; exit 1; }
grep -i "x-thermflow-trace: *$tid-$span" "$tmp/headers.txt" >/dev/null &&
	{ echo "smoke: gateway echoed the client's span ID instead of minting its own"; exit 1; }

# Poll under the same trace, or the timeline gains a second one.
curl -s -H "X-Thermflow-Trace: $tid-$span" "$gw/v2/jobs/$id/wait?timeout_ms=60000" >"$tmp/done.json"
grep -q '"state": *"done"' "$tmp/done.json" ||
	{ echo "smoke: job did not finish done:"; cat "$tmp/done.json"; exit 1; }
echo "smoke: job done, response continues client trace $tid"

# --- 2. One timeline: gateway edge spans and backend job spans -------
curl -s "$gw/v2/jobs/$id/trace" >"$tmp/trace.json"
python3 - "$tmp/trace.json" "$tid" <<'PY' || { cat "$tmp/trace.json"; exit 1; }
import json, sys
tr = json.load(open(sys.argv[1]))
tid = sys.argv[2]
spans = tr.get("spans") or []
bad = [s["name"] for s in spans if s["trace_id"] != tid]
if bad:
    sys.exit("smoke: spans %s are not under trace %s" % (bad, tid))
have = {(s.get("service"), s["name"]) for s in spans}
for want in [("thermflowgate", "http.server"), ("thermflowd", "http.server"),
             ("thermflowd", "job.queued"), ("thermflowd", "job.run")]:
    if want not in have:
        sys.exit("smoke: timeline has no %s %s span (got %s)" % (want[1], want[0], sorted(have)))
PY
echo "smoke: one timeline under trace $tid, gateway http.server and backend job.* spans"

# --- 3. thermload reports slowest-request traces that resolve --------
"$tmp/thermload" -target "$gw" -api v2 -unique \
	-stages 20 -stage-duration 2s -kernels dot,saxpy \
	-out "$tmp/load.json" -check >"$tmp/load.log" 2>&1 ||
	{ echo "smoke: thermload run failed:"; cat "$tmp/load.log"; exit 1; }
grep -q '"slowest":' "$tmp/load.json" ||
	{ echo "smoke: load report has no slowest block"; cat "$tmp/load.json"; exit 1; }
ltid="$(sed -n 's/.*"trace_id": *"\([0-9a-f]*\)".*/\1/p' "$tmp/load.json" | head -1)"
ljid="$(sed -n 's/.*"job_id": *"\([0-9a-f]*\)".*/\1/p' "$tmp/load.json" | head -1)"
[ -n "$ltid" ] && [ -n "$ljid" ] ||
	{ echo "smoke: slowest entry lacks trace_id/job_id"; cat "$tmp/load.json"; exit 1; }

curl -s "$gw/v2/jobs/$ljid/trace" >"$tmp/slow_trace.json"
grep -q "\"trace_id\": *\"$ltid\"" "$tmp/slow_trace.json" ||
	{ echo "smoke: slowest job $ljid timeline does not carry trace $ltid:"; cat "$tmp/slow_trace.json"; exit 1; }
grep -q '"name": *"job.run"' "$tmp/slow_trace.json" ||
	{ echo "smoke: slowest job timeline has no job.run span:"; cat "$tmp/slow_trace.json"; exit 1; }
echo "smoke: thermload slowest request (trace $ltid) resolves to job $ljid's timeline"

echo "smoke: OK (cross-process trace propagation, merged gateway/backend timeline, slowest-trace resolution)"
