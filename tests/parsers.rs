//! Bad input never panics: random strings and mutations of valid inputs
//! fed to every parser behind a CLI flag (JSON documents and run
//! manifests, correlation CSV, fault specs, replay tokens, recorded event
//! logs) must come back as `Ok` or `Err`. A panic fails the case and names
//! its replayable seed.

use active_correlation_tracking::apps::Drift;
use active_correlation_tracking::dsm::IterStats;
use active_correlation_tracking::experiment::Workbench;
use active_correlation_tracking::obs::{json, Analysis, RunManifest};
use active_correlation_tracking::sched::Schedule;
use active_correlation_tracking::sim::{forall, DetRng, FaultPlan};
use active_correlation_tracking::track::{profile_map, render_csv, CorrelationMatrix};

/// Bytes the grammars care about, so random strings get past the first
/// character often enough to reach the deeper parser states.
const GRAMMAR: &[u8] = b"{}[],:\"\\/0123456789.eE+-tfnul s!=_\n\r\tu";

fn grammar_byte(rng: &mut DetRng) -> u8 {
    GRAMMAR[rng.index(GRAMMAR.len())]
}

/// Up to 63 bytes, lossily decoded as from a corrupt file: all grammar
/// bytes or all arbitrary bytes.
fn random_text(rng: &mut DetRng) -> String {
    let byte = [grammar_byte, |rng: &mut DetRng| rng.next_below(256) as u8][rng.index(2)];
    let bytes: Vec<u8> = (0..rng.index(64)).map(|_| byte(rng)).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One to four edits of one of `valid`. Each replaces the bytes from a
/// random position (half the time the next digit) up to a random end
/// (often the same position, or the end of the digit run there) with a
/// random byte, grammar bytes, a digit or bracket run of up to 511 bytes,
/// a number of any magnitude, a copy of another slice, or nothing.
fn mutant(rng: &mut DetRng, valid: &[String]) -> String {
    let mut bytes = valid[rng.index(valid.len())].clone().into_bytes();
    for _ in 0..rng.range(1, 5) {
        let pos = rng.index(bytes.len() + 1);
        // Half the edits start at the next digit, where numbers get mangled.
        let at = match (pos..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) {
            Some(digit) if rng.chance(0.5) => digit,
            _ => pos,
        };
        let digits = bytes[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let end = [at, at + digits, at + rng.index(32)][rng.index(3)].min(bytes.len());
        let from = rng.index(bytes.len() + 1);
        let copy = bytes[from..(from + rng.index(32)).min(bytes.len())].to_vec();
        let max_run = 1 << rng.range(1, 10);
        let run_len = rng.range(1, max_run) as usize;
        let insert = match rng.next_below(6) {
            0 => vec![rng.next_below(256) as u8],
            1 => (0..rng.range(1, 8)).map(|_| grammar_byte(rng)).collect(),
            2 => vec![[b'9', b'['][rng.index(2)]; run_len],
            3 => (rng.next_u64() >> rng.index(64)).to_string().into_bytes(),
            4 => copy,
            _ => Vec::new(),
        };
        bytes.splice(at..end, insert);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Checks `parse` on 1000 random strings and 1000 mutants of `valid`.
fn never_panics<T>(valid: &[String], parse: impl Fn(&str) -> T) {
    forall(1000, 0, random_text, |text| _ = parse(text));
    forall(1000, 0, |rng| mutant(rng, valid), |text| _ = parse(text));
}

fn manifest() -> String {
    let manifest = RunManifest::new("acorr run").param("app", "SOR");
    manifest.with_digest("fnv1a:01234567".into()).to_json()
}

#[test]
fn json_parse_never_panics() {
    let nested = r#"{"a":[1,-2.5e3,-0,{"b":null}],"c":"é\n\"","d":[true,false,[]]}"#;
    let valid = [
        manifest(),
        json::iter_stats_json(&IterStats::new()),
        nested.into(),
    ];
    never_panics(&valid, json::parse);
}

#[test]
fn manifest_from_json_never_panics() {
    never_panics(&[manifest()], RunManifest::from_json);
}

#[test]
fn correlation_csv_never_panics() {
    // Fixed inputs first: cells whose sum overflows the kernels' integers,
    // and a file with no rows, which `acorr profile` reads as zero threads.
    let max = u64::MAX;
    let big = format!("0,{max},0,0\n{max},0,0,0\n0,0,0,{max}\n0,0,{max},0\n");
    assert!(CorrelationMatrix::from_csv(&big).is_err());
    profile_map(&CorrelationMatrix::from_csv("").unwrap());
    let mut corr = CorrelationMatrix::zeros(4);
    corr.set(0, 1, 7);
    corr.set(2, 3, 1_000_000);
    corr.set(1, 1, 42);
    never_panics(&[render_csv(&corr), big], |text| {
        CorrelationMatrix::from_csv(text).map(|m| profile_map(&m))
    });
}

#[test]
fn fault_spec_never_panics() {
    let valid = [
        "moderate",
        "heavy,seed=7,drop_prob=0.05,max_retries=6",
        "partition,partition_window_us=2000,max_delay_us=250,slow_factor=2.5",
        "crash_prob=1,slow_every=2,slow_period_us=100,retry_timeout_us=50",
    ];
    never_panics(&valid.map(String::from), FaultPlan::parse);
}

#[test]
fn replay_token_never_panics() {
    let valid = ["s1", "s1:1", "s1!1", "s1:0.2.1!0.1", "s1:4294967295"];
    never_panics(&valid.map(String::from), Schedule::parse_token);
}

#[test]
fn event_log_analysis_never_panics() {
    // A recorded bundle with every kind of line `acorr analyze` folds:
    // misses, twins, diffs, locks, latencies, intervals, spans, tracked
    // correlation faults and a detected phase shift.
    let scan = Workbench::new(2, 4)
        .unwrap()
        .with_observer()
        .phase_scan(|| Drift::new(32, 4, 2), 6, 2)
        .unwrap();
    let marks: Vec<_> = scan
        .shifts
        .iter()
        .map(|m| (m.window, m.delta_ppm))
        .collect();
    assert_eq!(marks, [(1, 400_000)], "pinned phase scan");
    let events = scan.observation.unwrap().events_jsonl;
    never_panics(&[events], |text| {
        Analysis::from_events(text, scan.threads, scan.pages)
    });
}
