#!/usr/bin/env sh
# Validates an `acorr run --obs-dir` artifact bundle: every expected file
# present, JSONL lines parse as JSON objects, each barrier release carries
# the time of its interval record, the Chrome trace is a valid
# trace_event document, the CSVs carry their headers, and the manifest has
# the right schema and a digest. Dependency-free beyond python3 (used only
# for JSON parsing, no third-party modules).
#
# Usage: scripts/check_obs.sh DIR
set -eu

dir="${1:?usage: scripts/check_obs.sh DIR}"

fail() {
    echo "check_obs: $1" >&2
    exit 1
}

for f in events.jsonl trace.json metrics.csv histograms.csv manifest.json; do
    [ -s "$dir/$f" ] || fail "missing or empty $dir/$f"
done

python3 - "$dir" <<'EOF'
import json, sys

dir = sys.argv[1]

def fail(msg):
    print(f"check_obs: {msg}", file=sys.stderr)
    sys.exit(1)

# events.jsonl: every line a standalone JSON object with a type tag, and
# every barrier_release stamped at its release: the ts of the interval
# record that follows it.
release = None
with open(f"{dir}/events.jsonl") as f:
    for n, line in enumerate(f, 1):
        try:
            event = json.loads(line)
        except ValueError as e:
            fail(f"events.jsonl:{n}: {e}")
        if not isinstance(event, dict) or "type" not in event:
            fail(f"events.jsonl:{n}: not an object with a 'type' tag")
        if event["type"] == "barrier_release":
            if release is not None:
                fail(f"events.jsonl:{release[0]}: barrier_release with no interval record after it")
            release = (n, event.get("ts"))
        elif event["type"] == "interval" and release is not None:
            if event.get("ts") != release[1]:
                fail(f"events.jsonl:{release[0]}: barrier_release at ts {release[1]}, "
                     f"its interval record (line {n}) at ts {event.get('ts')}")
            release = None
if release is not None:
    fail(f"events.jsonl:{release[0]}: barrier_release with no interval record after it")

# trace.json: Chrome trace_event envelope with a non-empty event array.
with open(f"{dir}/trace.json") as f:
    trace = json.load(f)
if trace.get("displayTimeUnit") != "ns":
    fail("trace.json: displayTimeUnit is not 'ns'")
events = trace.get("traceEvents")
if not isinstance(events, list) or not events:
    fail("trace.json: traceEvents missing or empty")
if any("ph" not in e for e in events):
    fail("trace.json: event without a phase")

# manifest.json: schema, tool, and a digest to replay against.
with open(f"{dir}/manifest.json") as f:
    manifest = json.load(f)
if manifest.get("schema") != "acorr-obs/1":
    fail(f"manifest.json: unexpected schema {manifest.get('schema')!r}")
for key in ("tool", "digest"):
    if not manifest.get(key):
        fail(f"manifest.json: missing {key}")
if not manifest["digest"].startswith("fnv1a:"):
    fail("manifest.json: digest is not an fnv1a digest")
EOF

head -1 "$dir/metrics.csv" | grep -q "^barrier,at_ns,elapsed_ns" \
    || fail "metrics.csv: bad header"
head -1 "$dir/histograms.csv" | grep -q "^histogram,bucket,lo_ns,hi_ns,count" \
    || fail "histograms.csv: bad header"

# analysis/: produced by `acorr analyze --obs-dir DIR`. Validated whenever
# present; the CI and verify.sh smokes run analyze first, so a missing
# bundle there fails upstream, and a stale or tampered bundle fails here.
if [ -d "$dir/analysis" ]; then
    for f in page_heat.csv thread_comm.csv critical_path.csv spans.csv \
             phases.csv report.txt; do
        [ -s "$dir/analysis/$f" ] || fail "missing or empty $dir/analysis/$f"
    done
    head -1 "$dir/analysis/page_heat.csv" \
        | grep -q "^page,fetches,twins,diffs,diff_bytes,transfers,heat$" \
        || fail "analysis/page_heat.csv: bad header"
    head -1 "$dir/analysis/thread_comm.csv" \
        | grep -q "^thread,remote_misses,tracking_faults,lock_grants,remote_lock_grants,migrations$" \
        || fail "analysis/thread_comm.csv: bad header"
    head -1 "$dir/analysis/critical_path.csv" \
        | grep -q "^barrier,elapsed_ns,stall_ns,critical_node,fetch_wait_ns,lock_wait_ns$" \
        || fail "analysis/critical_path.csv: bad header"
    head -1 "$dir/analysis/spans.csv" | grep -q "^phase,count,total_ns,max_ns$" \
        || fail "analysis/spans.csv: bad header"
    head -1 "$dir/analysis/phases.csv" | grep -q "^window,delta_ppm$" \
        || fail "analysis/phases.csv: bad header"
    # The report is stamped with the digest it was verified against; it
    # must be the manifest's.
    digest="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["digest"])' \
        "$dir/manifest.json")"
    grep -q "^stats digest: $digest\$" "$dir/analysis/report.txt" \
        || fail "analysis/report.txt digest line does not match manifest ($digest)"
    echo "check_obs: analysis OK (digest $digest)"
else
    echo "check_obs: note: no analysis/ bundle (run: acorr analyze --obs-dir $dir)"
fi

echo "check_obs: OK ($dir)"
