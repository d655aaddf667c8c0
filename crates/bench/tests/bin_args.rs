//! Argument-hygiene tests for the `nsai-bench` binaries (ISSUE 8
//! satellite): every bin follows the figures-bin convention — unknown
//! flags and malformed values are usage errors on **stderr** with exit
//! status **2**, never panics; `--help` goes to stdout with exit 0.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("could not spawn {bin}: {e}"))
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} {args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("usage:") || stderr.contains("error:"),
        "{bin} {args:?}: stderr should carry the diagnostic, got: {stderr}"
    );
    // A panic would print a backtrace marker; the convention forbids it.
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?} panicked: {stderr}"
    );
}

fn assert_help(bin: &str) {
    let out = run(bin, &["--help"]);
    assert_eq!(out.status.code(), Some(0), "{bin} --help must exit 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("usage:"),
        "{bin} --help goes to stdout: {stdout}"
    );
}

#[test]
fn trace_rejects_bad_args() {
    let bin = env!("CARGO_BIN_EXE_trace");
    assert_usage_error(bin, &[]); // missing workload
    assert_usage_error(bin, &["bogus"]); // unknown workload
    assert_usage_error(bin, &["lnn", "out.json", "extra"]); // trailing arg
    assert_help(bin);
}

#[test]
fn figures_rejects_unknown_exhibits() {
    let bin = env!("CARGO_BIN_EXE_figures");
    assert_usage_error(bin, &["bogus-exhibit"]);
    assert_help(bin);
}

#[test]
fn perf_rejects_bad_args() {
    let bin = env!("CARGO_BIN_EXE_perf");
    assert_usage_error(bin, &["--seed"]); // missing value
    assert_usage_error(bin, &["--seed", "abc"]); // malformed value
    assert_usage_error(bin, &["--reps", "0"]); // out of range
    assert_usage_error(bin, &["--widths", "x"]); // malformed width
    assert_usage_error(bin, &["--widths", "0"]); // no such pool width
    let above_max = (nsai_tensor::par::MAX_THREADS + 1).to_string();
    assert_usage_error(bin, &["--widths", &above_max]); // would clamp
    assert_usage_error(bin, &["--widths", "1,1"]); // repeated width
    assert_usage_error(bin, &["--frobnicate"]); // unknown flag
    assert_help(bin);
}

#[test]
fn perf_compare_arg_and_io_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_perf");
    assert_usage_error(bin, &["compare"]); // missing paths
    assert_usage_error(bin, &["compare", "only-one.json"]);
    assert_usage_error(bin, &["compare", "a.json", "b.json", "c.json"]);
    assert_usage_error(bin, &["compare", "--bogus", "a.json", "b.json"]);
    // Unreadable paths are environment errors, also exit 2.
    assert_usage_error(
        bin,
        &["compare", "/nonexistent/a.json", "/nonexistent/b.json"],
    );
}

#[test]
fn closed_stdout_is_not_a_crash() {
    // `figures tab1 rec6 | true`, `perf --list | true`: the reader is
    // gone before anything is written. `figures` writes its JSON copies
    // under the working directory, so it runs in a scratch one.
    let scratch = std::env::temp_dir().join(format!("nsai-bench-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_figures"), &["--list"][..]),
        (env!("CARGO_BIN_EXE_figures"), &["tab1", "rec6"][..]),
        (env!("CARGO_BIN_EXE_perf"), &["--list"][..]),
    ] {
        let (reader, writer) = std::io::pipe().expect("create pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .current_dir(&scratch)
            .stdout(writer)
            .output()
            .unwrap_or_else(|e| panic!("could not spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    }
    // Exhibits after the first failed print still export their JSON.
    for name in ["tab1", "rec6"] {
        let json = scratch.join("results").join(format!("{name}.json"));
        assert!(json.is_file(), "{} not written", json.display());
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn perf_list_prints_the_workload_manifest() {
    let out = run(env!("CARGO_BIN_EXE_perf"), &["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in nsai_bench::perf::WORKLOAD_SUITE {
        assert!(stdout.lines().any(|l| l == *name), "missing {name}");
    }
}
