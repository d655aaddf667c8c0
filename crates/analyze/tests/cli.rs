//! Exit-code contract of the `nsai-analyze` binary: 0 on a clean tree,
//! 1 when deny findings (or warnings under `--deny-warnings`) exist,
//! 2 on usage/config errors. CI keys off these codes.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

struct TempTree(PathBuf);

impl TempTree {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("nsai-analyze-cli-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("src")).expect("create temp tree");
        TempTree(dir)
    }

    fn write(&self, rel: &str, content: &str) -> &Self {
        fs::write(self.0.join(rel), content).expect("write fixture");
        self
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn analyze(tree: &TempTree, extra: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_nsai-analyze"))
        .arg("--root")
        .arg(&tree.0)
        .args(extra)
        .output()
        .expect("run nsai-analyze");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    (output.status.code().unwrap_or(-1), text)
}

#[test]
fn clean_tree_exits_zero() {
    let tree = TempTree::new("clean");
    tree.write("src/lib.rs", "pub fn f() -> u32 {\n    1\n}\n");
    let (code, out) = analyze(&tree, &[]);
    assert_eq!(code, 0, "{out}");
}

#[test]
fn seeded_violation_exits_one_and_names_the_site() {
    let tree = TempTree::new("violation");
    tree.write(
        "src/lib.rs",
        "pub fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n",
    );
    let (code, out) = analyze(&tree, &[]);
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("src/lib.rs:2"), "{out}");
    assert!(out.contains("unsafe-audit"), "{out}");
}

#[test]
fn closed_stdout_ends_the_report_quietly() {
    // `nsai-analyze --format json | true`: the reader is gone before the
    // report is written. The findings still decide the exit code.
    let tree = TempTree::new("closed-stdout");
    tree.write(
        "src/lib.rs",
        "pub fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n",
    );
    for format in ["json", "text"] {
        let (reader, writer) = std::io::pipe().expect("create pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_nsai-analyze"))
            .arg("--root")
            .arg(&tree.0)
            .args(["--format", format])
            .stdout(writer)
            .output()
            .expect("run nsai-analyze");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{format}: {stderr}");
        assert!(!stderr.contains("panicked"), "{format}: {stderr}");
    }
}

#[test]
fn warnings_gate_only_under_deny_warnings() {
    let tree = TempTree::new("warnings");
    tree.write("lint.toml", "[rules.determinism]\nseverity = \"warn\"\n")
        .write(
            "src/lib.rs",
            "pub fn f() {\n    let _t = std::time::Instant::now();\n}\n",
        );
    let (code, out) = analyze(&tree, &[]);
    assert_eq!(code, 0, "{out}");
    let (code, out) = analyze(&tree, &["--deny-warnings"]);
    assert_eq!(code, 1, "{out}");
}

#[test]
fn json_format_reports_waived_and_unwaived_findings() {
    let tree = TempTree::new("json");
    tree.write(
        "src/lib.rs",
        concat!(
            "pub fn f(p: *mut u8) {\n",
            "    unsafe { *p = 0 };\n",
            "    / nsai-lint: allow(unsafe-audit): test waiver for the JSON schema.\n",
            "    unsafe { *p = 1 };\n",
            "}\n",
        )
        .replace("/ nsai", "// nsai")
        .as_str(),
    );
    let (code, out) = analyze(&tree, &["--format", "json"]);
    // The unwaived finding still gates the exit code.
    assert_eq!(code, 1, "{out}");
    // Stable schema header and per-finding fields.
    assert!(out.contains("\"schema\": \"nsai-analyze/v1\""), "{out}");
    assert!(out.contains("\"errors\": 1"), "{out}");
    assert!(
        out.contains(
            "\"rule\": \"unsafe-audit\", \"path\": \"src/lib.rs\", \"line\": 2, \
             \"severity\": \"deny\""
        ),
        "{out}"
    );
    // Waived findings are present in JSON (text mode hides them) and
    // marked as such.
    assert!(out.contains("\"line\": 4"), "{out}");
    assert!(out.contains("\"waived\": true"), "{out}");
    // No text summary line pollutes the machine-readable stream.
    assert!(!out.contains("error(s)"), "{out}");
}

#[test]
fn waived_findings_are_counted_in_json_and_the_summary_line() {
    let tree = TempTree::new("waivers");
    tree.write(
        "src/lib.rs",
        concat!(
            "pub fn f(p: *mut u8) {\n",
            "    / nsai-lint: allow(unsafe-audit): test waiver for the count.\n",
            "    unsafe { *p = 1 };\n",
            "}\n",
        )
        .replace("/ nsai", "// nsai")
        .as_str(),
    );
    let (code, out) = analyze(&tree, &["--format", "json"]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("\"errors\": 0"), "{out}");
    assert!(out.contains("\"waivers\": 1"), "{out}");
    let (code, out) = analyze(&tree, &[]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("0 error(s), 0 warning(s), 1 waived"), "{out}");
}

#[test]
fn stale_waiver_exits_one_and_matches_the_ci_problem_matcher() {
    let tree = TempTree::new("stale");
    tree.write(
        "src/lib.rs",
        concat!(
            "pub fn f(p: &mut u8) {\n",
            "    / nsai-lint: allow(unsafe-audit): the unsafe block it covered is gone.\n",
            "    *p = 1;\n",
            "}\n",
        )
        .replace("/ nsai", "// nsai")
        .as_str(),
    );
    let (code, out) = analyze(&tree, &[]);
    assert_eq!(code, 1, "{out}");
    let line = out
        .lines()
        .find(|l| l.contains("stale-waiver"))
        .expect("finding line");
    assert!(line.starts_with("src/lib.rs:2: deny"), "{line}");
    assert!(regex_lite(line), "{line}");
    assert!(out.contains("0 waived"), "{out}");
}

#[test]
fn text_findings_match_the_ci_problem_matcher() {
    // The GitHub problem matcher (.github/problem-matchers/) parses
    // `path:line: severity [rule] message`; keep the text format and
    // that regex in lockstep.
    let tree = TempTree::new("matcher");
    tree.write(
        "src/lib.rs",
        "pub fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n",
    );
    let (code, out) = analyze(&tree, &[]);
    assert_eq!(code, 1, "{out}");
    let line = out
        .lines()
        .find(|l| l.contains("unsafe-audit"))
        .expect("finding line");
    let pattern = regex_lite(line);
    assert!(
        pattern,
        "finding line does not match the matcher regex: {line}"
    );
}

#[test]
fn dead_pub_fn_exits_one_and_matches_the_ci_problem_matcher() {
    let tree = TempTree::new("dead-pub");
    tree.write(
        "lint.toml",
        "[rules.dead-pub]\npaths = [\"src/\"]\n",
    )
    .write(
        "src/lib.rs",
        "pub fn spare() -> u32 {\n    1\n}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert_eq!(super::spare(), 1);\n    }\n}\n",
    );
    let (code, out) = analyze(&tree, &[]);
    assert_eq!(code, 1, "{out}");
    let line = out
        .lines()
        .find(|l| l.contains("dead-pub"))
        .expect("finding line");
    assert!(line.starts_with("src/lib.rs:1: deny [dead-pub]"), "{line}");
    assert!(regex_lite(line), "{line}");
}

/// Hand-rolled check equivalent to the problem-matcher regexp
/// `^(.+):(\d+): (deny|warn) \[([a-z-]+)\] (.+)$` — the analyzer is
/// dependency-free, so no regex crate.
fn regex_lite(line: &str) -> bool {
    let Some((path_line, rest)) = line.split_once(": ") else {
        return false;
    };
    let Some((path, lineno)) = path_line.rsplit_once(':') else {
        return false;
    };
    if path.is_empty() || lineno.parse::<u32>().is_err() {
        return false;
    }
    let Some(rest) = rest
        .strip_prefix("deny [")
        .or_else(|| rest.strip_prefix("warn ["))
    else {
        return false;
    };
    let Some((rule, message)) = rest.split_once("] ") else {
        return false;
    };
    rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') && !message.is_empty()
}

#[test]
fn config_errors_exit_two() {
    let tree = TempTree::new("config");
    tree.write("lint.toml", "[rules.determinism]\nseverity = \"fatal\"\n")
        .write("src/lib.rs", "pub fn f() {}\n");
    let (code, out) = analyze(&tree, &[]);
    assert_eq!(code, 2, "{out}");
}
