//! Command-line contract: help and list exit 0, usage errors exit 2.

use std::process::{Command, Output};

fn nsbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nsbench"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_and_list_exit_zero() {
    let help = nsbench(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("--workload"));
    let list = nsbench(&["--list"]);
    assert_eq!(list.status.code(), Some(0));
    let listed = String::from_utf8_lossy(&list.stdout);
    for spec in &nsbench::spec::WORKLOADS {
        assert!(listed.contains(spec.name), "{} not listed", spec.name);
    }
}

#[test]
fn usage_errors_exit_two_without_a_result() {
    for args in [
        &["--bogus"][..],
        &["--workload", "no-such-mix"],
        &[],
        &["--workload", "lnn-open", "--trace", "2"],
        &["--workload", "lnn-open", "--seconds", "0"],
        &["--workload", "lnn-open", "--seed"],
    ] {
        let out = nsbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
