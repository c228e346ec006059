//! A study bin given a cluster shape it cannot run, or a `chaos` plan list
//! that names no runnable plan, reports it the way it reports a bad flag
//! value: `error: …` on stderr and exit status 2, before any run starts.

use std::process::Command;

#[test]
fn protocols_and_chaos_reject_a_shape_they_cannot_run() {
    let (protocols, chaos) = (env!("CARGO_BIN_EXE_protocols"), env!("CARGO_BIN_EXE_chaos"));
    let cases: [(&str, &[&str], &str); 6] = [
        (protocols, &["--threads", "0"], "0 threads"),
        (protocols, &["--threads", "4"], "8 nodes"),
        (protocols, &["--threads", "1000"], "Water"),
        (chaos, &["--threads", "0"], "0 threads"),
        (chaos, &["--nodes", "0"], "node"),
        (chaos, &["--threads", "1000"], "Spatial"),
    ];
    for (bin, args, names) in cases {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("the bin starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(names), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?}: a run started");
    }
}

#[test]
fn chaos_rejects_a_plan_list_it_cannot_run() {
    for (plans, names) in [("bogus", "bogus"), (",", "no fault plans")] {
        let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
            .args(["--plans", plans])
            .output()
            .expect("the bin starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--plans {plans}: {stderr}");
        assert!(stderr.starts_with("error:"), "--plans {plans}: {stderr}");
        assert!(stderr.contains(names), "--plans {plans}: {stderr}");
        assert!(
            stderr.contains("available presets:"),
            "--plans {plans}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "--plans {plans}: a run started");
    }
}
