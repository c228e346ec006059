#!/usr/bin/env sh
# The full PR gate — run before pushing; CI's `verify` job runs this script.
# Zero external dependencies, so it works offline. The build and test steps
# are the tier-1 command; `default-members` in the workspace Cargo.toml
# makes them cover every crate.
#
# The smokes keep their files under target/verify/: cleared when the script
# starts and left in place when it ends, so a failed step can be read
# afterwards (CI uploads the trace analysis, the model-check logs and the
# serve timeline from there).
set -eu

cd "$(dirname "$0")/.."
scratch=target/verify
rm -rf "$scratch"
mkdir -p "$scratch"

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
obs_dir="$scratch/obs"
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

echo "==> model-check smoke (bounded fault x schedule sweep + seeded bug)"
mc_dir="$scratch/model-check"
mkdir -p "$mc_dir"
# Clean sweep: two apps through the bounded fault x schedule space.
for app in sor water; do
    ./target/release/acorr explore --app "$app" --threads 8 --nodes 2 \
        --mode model-check --budget 6 --decision-log "$mc_dir/$app.log"
    grep -q "^failure_token=none$" "$mc_dir/$app.log"
done
# Teeth: the seeded bug must be found, shrink to the pinned token, and
# fail the command (exit 1) after the decision log is written.
status=0
./target/release/acorr explore --app sor --threads 8 --nodes 2 \
    --mode model-check --budget 8 --inject lose-partitioned-invalidations \
    --decision-log "$mc_dir/injected.log" 2> "$mc_dir/injected.err" || status=$?
cat "$mc_dir/injected.err"
[ "$status" -eq 1 ] && grep -q "^failure_token=s1!1$" "$mc_dir/injected.log" || {
    echo "error: the injected model-check run exited $status or did not shrink to s1!1" >&2
    exit 1
}
# The pinned token replays: with the bug it fails again (exit 1, naming
# s1!1); without the bug the same schedule is clean (exit 0).
status=0
./target/release/acorr explore --app sor --threads 8 --nodes 2 --replay 's1!1' \
    --inject lose-partitioned-invalidations 2> "$mc_dir/replay.err" || status=$?
cat "$mc_dir/replay.err"
[ "$status" -eq 1 ] && grep -q "at schedule s1!1: " "$mc_dir/replay.err" || {
    echo "error: replaying s1!1 with the injected bug exited $status" >&2; exit 1; }
replay_out="$(./target/release/acorr explore --app sor --threads 8 --nodes 2 --replay 's1!1')"
echo "$replay_out" | grep -q "^no new races, no divergences$" || {
    echo "error: replaying s1!1 without the injected bug did not run clean:" >&2
    echo "$replay_out" >&2
    exit 1
}

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
scale_err="$scratch/scale-shape.err"
status=0
timeout 10 ./target/release/acorr place --scale 70000x70000 2> "$scale_err" || status=$?
cat "$scale_err"
[ "$status" -eq 1 ] && grep -q "^error:" "$scale_err" || {
    echo "error: place --scale 70000x70000 exited $status" >&2; exit 1; }

echo "==> serve smoke (online placement service, pinned timelines at 64 and 100k threads)"
# The hotspot decision timeline is a pure function of (seed, scenario,
# jobs) — the digest grep trips on any drift in the traffic driver, the
# phase detector, the candidate placement, or the migration gate.
serve_dir="$scratch/serve"
mkdir -p "$serve_dir"
serve_out="$(./target/release/acorr serve --scenario hotspot --steps 48 \
    --timeline "$serve_dir/timeline.txt")"
echo "$serve_out" | grep -q "timeline digest: fnv1a:f2e8753835019d00" || {
    echo "error: hotspot decision timeline drifted from the pinned digest:" >&2
    echo "$serve_out" >&2
    echo "--- timeline ---" >&2
    cat "$serve_dir/timeline.txt" >&2
    exit 1
}
# The 100k-thread churn run exercises what the hotspot smoke does not: the
# pair-list step at serve scale, the stores built on firing steps and the
# multilevel candidate. The digests and both cut totals (summed over every
# step's pair list) are pure functions of the same inputs; the timeout
# only catches a catastrophic slowdown.
serve_out="$(timeout 120 ./target/release/acorr serve --scenario churn \
    --threads 100000 --nodes 256 --steps 60 --seed 42)"
echo "$serve_out" | grep -q "timeline digest: fnv1a:7fb11872e6be710e" &&
    echo "$serve_out" | grep -q "final mapping digest: fnv1a:b1b76bcb81765175" &&
    echo "$serve_out" | grep -q "cut served 9273576 vs never-remap 42598944" || {
    echo "error: 100000x256 churn serve digests or cuts drifted from the pinned values:" >&2
    echo "$serve_out" >&2
    exit 1
}
# The 100k-thread hotspot run drives the detector's one-pass window fold
# through fire and re-arm cycles at serve scale, and the ring generator at
# offsets other than 1.
serve_out="$(timeout 120 ./target/release/acorr serve --scenario hotspot \
    --threads 100000 --nodes 256 --steps 60 --seed 42)"
echo "$serve_out" | grep -q "timeline digest: fnv1a:c1f8ea0555e529bd" &&
    echo "$serve_out" | grep -q "final mapping digest: fnv1a:30301386387f5925" &&
    echo "$serve_out" | grep -q "cut served 1397760 vs never-remap 1397760" || {
    echo "error: 100000x256 hotspot serve digests or cuts drifted from the pinned values:" >&2
    echo "$serve_out" >&2
    exit 1
}
# The 100k-thread static run is the quiet step alone: the detector never
# fires, so no step builds a store. Its pair list is built and summed once,
# at step 0, and every later step repeats that list and its two cut sums.
serve_out="$(timeout 120 ./target/release/acorr serve --scenario static \
    --threads 100000 --nodes 256 --steps 60 --seed 42)"
echo "$serve_out" | grep -q "cut served 122880 vs never-remap 122880" &&
    echo "$serve_out" | grep -q "final mapping digest: fnv1a:30301386387f5925" || {
    echo "error: 100000x256 static serve cuts or mapping drifted from the pinned values:" >&2
    echo "$serve_out" >&2
    exit 1
}
# The 100k-thread diurnal run is the one scenario whose pair list is built
# and summed at every step: its weights move each step while its rings stay
# put, so the detector stays quiet and the cut totals sum 60 fresh lists.
serve_out="$(timeout 120 ./target/release/acorr serve --scenario diurnal \
    --threads 100000 --nodes 256 --steps 60 --seed 42)"
echo "$serve_out" | grep -q "cut served 143360 vs never-remap 143360" &&
    echo "$serve_out" | grep -q "final mapping digest: fnv1a:30301386387f5925" || {
    echo "error: 100000x256 diurnal serve cuts or mapping drifted from the pinned values:" >&2
    echo "$serve_out" >&2
    exit 1
}

echo "==> adaptive smoke (§7 policy studies: pinned stdout at 1 and 2 workers, zero iterations rejected)"
# Each study runs its policies side by side on the pool, so stdout must be
# the pinned capture byte for byte at every worker count. Zero iterations
# must be a flag error; the timeout catches a hang.
adaptive_dir="$scratch/adaptive"
mkdir -p "$adaptive_dir"
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

echo "==> study determinism smoke (table5 and table6 stdout identical at 1 and 2 workers)"
# The study bins print their worker count on stderr, so stdout is the same
# bytes at every --threads value. Neither bin writes an artifact.
study_dir="$scratch/study"
mkdir -p "$study_dir"
for bin in table5 table6; do
    for workers in 1 2; do
        ./target/release/$bin --threads "$workers" > "$study_dir/$bin-$workers.txt"
    done
    cmp "$study_dir/$bin-1.txt" "$study_dir/$bin-2.txt" || {
        echo "error: $bin stdout differs between 1 and 2 workers" >&2
        exit 1
    }
done

echo "==> wide-cluster smoke (SOR at 1024 threads on 1024 nodes under a 1 GiB address-space cap)"
# A node keeps a dirty mask only for a page written since its last
# finalize, so 1024 nodes over SOR's 4097 pages fit under the cap; one
# 512-byte mask per page per node would need about 2 GiB per engine.
# `ulimit -v` acts on the subshell alone; the timeout catches a hang.
status=0
wide_out="$( (ulimit -v 1048576 && timeout 60 ./target/release/acorr run --app SOR \
    --threads 1024 --nodes 1024 --iters 2 --jobs 2) )" || status=$?
echo "$wide_out"
[ "$status" -eq 0 ] &&
    echo "$wide_out" | grep -q "16368 misses" &&
    echo "$wide_out" | grep -q "50.6 MB diff" &&
    echo "$wide_out" | grep -q "cut *8184" || {
    echo "error: capped 1024-node SOR run exited $status or drifted from the pinned stats" >&2
    exit 1
}

echo "==> bad-shape smoke (protocols and chaos reject a shape they cannot run)"
# Fewer threads than protocols' 8 nodes, and chaos with no node: each is a
# flag error (exit 2, an `error:` line) before any run; the timeout catches
# a run that starts anyway.
for cmd in "protocols --threads 4" "chaos --nodes 0"; do
    status=0
    timeout 10 ./target/release/$cmd > /dev/null 2> "$adaptive_dir/err.txt" || status=$?
    cat "$adaptive_dir/err.txt"
    [ "$status" -eq 2 ] && grep -q "^error:" "$adaptive_dir/err.txt" || {
        echo "error: $cmd exited $status" >&2; exit 1; }
done

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
