//! Shapes that node and thread ids cannot represent make the `acorr` binary
//! print an `error:` line and exit 1: never a panic (exit 101), and never a
//! run on wrapped node ids (exit 0). A help flag anywhere prints the usage
//! and exits 0.

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
