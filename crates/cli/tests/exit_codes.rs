//! Shapes that node and thread ids cannot represent, or that a command cannot
//! run (serve traffic on one thread), make the `acorr` binary print an
//! `error:` line and exit 1: never a panic (exit 101), and never a run on
//! wrapped node ids (exit 0). So does a flag the command does not read. A
//! help flag anywhere prints the usage and exits 0.

use std::process::Command;

#[test]
fn out_of_range_shapes_exit_1_with_an_error_line() {
    for args in [
        &["place", "--scale", "70000x70000"][..],
        &["place", "--scale", "1x1"],
        &["place", "--scale", "5000000000x1000"],
        &[
            "serve",
            "--scenario",
            "churn",
            "--threads",
            "70000",
            "--nodes",
            "70000",
            "--steps",
            "13",
        ],
        &[
            "serve",
            "--scenario",
            "static",
            "--threads",
            "1",
            "--nodes",
            "1",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_acorr"))
            .args(args)
            .output()
            .expect("the acorr binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_misspelt_flag_on_every_command_exits_1_naming_it() {
    let commands = [
        "apps", "track", "profile", "place", "run", "serve", "report", "analyze", "overhead",
        "explore", "hot", "verify", "help",
    ];
    let every = commands.iter().map(|&command| vec![command, "--node", "4"]);
    // Flags the command does read do not hide the one it does not.
    let beside_known = vec!["place", "--app", "SOR", "--threads", "16", "--node", "4"];
    for args in every.chain([beside_known]) {
        let out = Command::new(env!("CARGO_BIN_EXE_acorr"))
            .args(&args)
            .output()
            .expect("the acorr binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, "error: unknown flag --node\n", "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn a_help_flag_in_any_position_prints_the_usage_and_exits_0() {
    for args in [
        &["help"][..],
        &["--help"],
        &["-h"],
        &["serve", "--help"],
        &["serve", "-h"],
        &["track", "--app", "-h"],
        &["place", "--scale", "70000x70000", "--help"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_acorr"))
            .args(args)
            .output()
            .expect("the acorr binary starts");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stdout.contains("USAGE:"), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn explore_exits_1_on_a_counterexample_or_an_unread_flag_and_0_when_clean() {
    let acorr = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_acorr"))
            .args(args)
            .output()
            .expect("the acorr binary starts");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.code(), stderr)
    };
    let (code, stderr) = acorr(&["explore", "--app", "racey", "--replay", "s1:1"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(
        stderr.contains("FAILED") && stderr.contains("s1:1"),
        "{stderr}"
    );

    let clean = [
        "explore",
        "--app",
        "sor",
        "--threads",
        "8",
        "--nodes",
        "2",
        "--budget",
        "2",
    ];
    let (code, stderr) = acorr(&clean);
    assert_eq!(code, Some(0), "{stderr}");

    let (code, stderr) = acorr(&[
        "explore",
        "--app",
        "sor",
        "--mode",
        "systematic",
        "--seed",
        "9",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "error: --seed does not apply with systematic mode\n"
    );
}
