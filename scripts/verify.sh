#!/usr/bin/env sh
# The full PR gate, identical to .github/workflows/ci.yml — run before
# pushing. Zero external dependencies, so it works offline. The build and
# test steps are the tier-1 command; `default-members` in the workspace
# Cargo.toml makes them cover every crate.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (RUSTDOCFLAGS=-D warnings)"
# A deleted or private item must not leave a dangling doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> examples build and run"
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    echo "    --example $name"
    cargo run --release --example "$name" -q >/dev/null
done

echo "==> observability smoke (run --obs-dir + analyze + manifest replay + foreign thread)"
obs_dir="$(mktemp -d)"
./target/release/acorr run --app SOR --threads 8 --nodes 2 \
    --iters 2 --faults moderate --obs-dir "$obs_dir"
./target/release/acorr analyze --obs-dir "$obs_dir"
[ -s "$obs_dir/analysis/report.txt" ] || {
    echo "error: analyze wrote no analysis/report.txt" >&2; exit 1; }
sh scripts/check_obs.sh "$obs_dir"
./target/release/acorr report --manifest "$obs_dir/manifest.json"
# A copy whose log names a thread the run does not have still replays its
# manifest; analyze must then refuse it with an error naming the line.
cp -R "$obs_dir" "$obs_dir.foreign"
echo '{"type":"correlation_fault","node":0,"thread":3000000,"page":4000000000}' \
    >> "$obs_dir.foreign/events.jsonl"
status=0
./target/release/acorr analyze --obs-dir "$obs_dir.foreign" \
    2> "$obs_dir.foreign.err" || status=$?
cat "$obs_dir.foreign.err"
[ "$status" -eq 1 ] &&
    grep -q "^error: .*line [0-9]*: thread 3000000 " "$obs_dir.foreign.err" || {
    echo "error: analyze on a foreign-thread bundle exited $status" >&2; exit 1; }
rm -rf "$obs_dir" "$obs_dir.foreign" "$obs_dir.foreign.err"

echo "==> model-check smoke (bounded fault x schedule sweep + seeded bug)"
mc_dir="$(mktemp -d)"
# Clean sweep: two apps through the bounded fault x schedule space.
for app in sor water; do
    ./target/release/acorr explore --app "$app" --threads 8 --nodes 2 \
        --mode model-check --budget 6 --decision-log "$mc_dir/$app.log"
    grep -q "^failure_token=none$" "$mc_dir/$app.log"
done
# Teeth: the seeded bug must be found and shrink to the pinned token.
./target/release/acorr explore --app sor --threads 8 --nodes 2 \
    --mode model-check --budget 8 --inject lose-partitioned-invalidations \
    --decision-log "$mc_dir/injected.log"
grep -q "^failure_token=s1!1$" "$mc_dir/injected.log"
rm -rf "$mc_dir"

echo "==> scale smoke (100k- and 1M-thread and 65535-node multilevel placement, pinned digests, bad shape rejected)"
# The assignment digest and cut are pure functions of (threads, nodes,
# degree, seed) — machine-independent — so any behaviour drift in the
# sparse store, the synthetic generator or the multilevel partitioner
# trips these greps. The timeouts only catch catastrophic slowdowns; the
# benchmark (BENCHMARK.json) tracks the real numbers.
scale_out="$(timeout 120 ./target/release/acorr place --scale 100000x256)"
echo "$scale_out" | grep -q "digest: fnv1a:e1285098d3c4cfcd" || {
    echo "error: 100000x256 placement digest drifted from the pinned value:" >&2
    echo "$scale_out" >&2
    exit 1
}
# A second 100k pin, at a seed no refinement change was written against.
scale_out="$(timeout 120 ./target/release/acorr place --scale 100000x256 --seed 7)"
echo "$scale_out" | grep -q "digest: fnv1a:2fdbe9c0b735db8d" || {
    echo "error: 100000x256 seed-7 placement digest drifted from the pinned value:" >&2
    echo "$scale_out" >&2
    exit 1
}
scale_out="$(timeout 300 ./target/release/acorr place --scale 1000000x1000)"
echo "$scale_out" | grep -q "digest: fnv1a:abcdd71d87d9eced" &&
    echo "$scale_out" | grep -q "cut 39910110 " || {
    echo "error: 1000000x1000 placement digest or cut drifted from the pinned values:" >&2
    echo "$scale_out" >&2
    exit 1
}
# The widest cluster: one thread per node, so almost every vertex of the
# initial partition takes the most-room fallback.
scale_out="$(timeout 120 ./target/release/acorr place --scale 65535x65535)"
echo "$scale_out" | grep -q "digest: fnv1a:4c2bd704988b7717" &&
    echo "$scale_out" | grep -q "cut 8812732 " || {
    echo "error: 65535x65535 placement digest or cut drifted from the pinned values:" >&2
    echo "$scale_out" >&2
    exit 1
}
# More nodes than 16-bit node ids can name is an error line and exit 1,
# not a panic; the timeout catches a run that starts anyway.
scale_err="$(mktemp)"
status=0
timeout 10 ./target/release/acorr place --scale 70000x70000 2> "$scale_err" || status=$?
cat "$scale_err"
[ "$status" -eq 1 ] && grep -q "^error:" "$scale_err" || {
    echo "error: place --scale 70000x70000 exited $status" >&2; exit 1; }
rm -f "$scale_err"

echo "==> serve smoke (online placement service, pinned timelines at 64 and 100k threads)"
# The hotspot decision timeline is a pure function of (seed, scenario,
# jobs) — the digest grep trips on any drift in the traffic driver, the
# phase detector, the candidate placement, or the migration gate.
serve_dir="$(mktemp -d)"
serve_out="$(./target/release/acorr serve --scenario hotspot --steps 48 \
    --timeline "$serve_dir/timeline.txt")"
echo "$serve_out" | grep -q "timeline digest: fnv1a:f2e8753835019d00" || {
    echo "error: hotspot decision timeline drifted from the pinned digest:" >&2
    echo "$serve_out" >&2
    echo "--- timeline ---" >&2
    cat "$serve_dir/timeline.txt" >&2
    exit 1
}
rm -rf "$serve_dir"
# The 100k-thread churn run exercises what the hotspot smoke does not: the
# sparse stores at serve scale and the multilevel candidate. Both digests
# are pure functions of the same inputs; the timeout only catches a
# catastrophic slowdown.
serve_out="$(timeout 120 ./target/release/acorr serve --scenario churn \
    --threads 100000 --nodes 256 --steps 60 --seed 42)"
echo "$serve_out" | grep -q "timeline digest: fnv1a:7fb11872e6be710e" &&
    echo "$serve_out" | grep -q "final mapping digest: fnv1a:b1b76bcb81765175" || {
    echo "error: 100000x256 churn serve digests drifted from the pinned values:" >&2
    echo "$serve_out" >&2
    exit 1
}
# The 100k-thread hotspot run drives the detector's one-pass window fold
# through fire and re-arm cycles at serve scale, and the ring generator at
# offsets other than 1.
serve_out="$(timeout 120 ./target/release/acorr serve --scenario hotspot \
    --threads 100000 --nodes 256 --steps 60 --seed 42)"
echo "$serve_out" | grep -q "timeline digest: fnv1a:c1f8ea0555e529bd" &&
    echo "$serve_out" | grep -q "final mapping digest: fnv1a:30301386387f5925" || {
    echo "error: 100000x256 hotspot serve digests drifted from the pinned values:" >&2
    echo "$serve_out" >&2
    exit 1
}

echo "==> adaptive smoke (§7 policy studies: pinned stdout at 1 and 2 workers, zero iterations rejected)"
# Each study runs its policies side by side on the pool, so stdout must be
# the pinned capture byte for byte at every worker count. Zero iterations
# must be a flag error; the timeout catches a hang.
adaptive_dir="$(mktemp -d)"
for workers in 1 2; do
    ./target/release/adaptive --threads "$workers" > "$adaptive_dir/out.txt"
    diff results/adaptive.txt "$adaptive_dir/out.txt" || {
        echo "error: adaptive --threads $workers drifted from results/adaptive.txt" >&2
        exit 1
    }
done
status=0
timeout 10 ./target/release/adaptive --phases 0 2> "$adaptive_dir/err.txt" || status=$?
cat "$adaptive_dir/err.txt"
[ "$status" -eq 2 ] && grep -q "^error:" "$adaptive_dir/err.txt" || {
    echo "error: adaptive --phases 0 exited $status" >&2; exit 1; }
rm -rf "$adaptive_dir"

echo "==> benchmark smoke (paper-64x8 study digests, built through the benchmark's own manifest)"
# The only check of the 11 paper-64x8 study digests (adaptive_study over
# the suite apps and Drift at 64x8), and the only build through the
# benchmark package's own Cargo.lock, which the facade must keep
# compiling. --seconds 0 runs the fewest units.
bench_out="$(cargo run --release --quiet --offline --locked \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
    --workload paper-64x8 --seconds 0)"
echo "$bench_out" | grep -q "digest_pinned=true" &&
    echo "$bench_out" | grep -q "failed 0" || {
    echo "error: paper-64x8 study digests drifted or a unit failed:" >&2
    echo "$bench_out" >&2
    exit 1
}

echo "==> OK"
