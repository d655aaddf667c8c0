//! CLI for the workspace invariant linter.
//!
//! ```text
//! nsai-analyze [--root <dir>] [--config <lint.toml>] [--format text|json]
//!              [--deny-warnings] [--quiet]
//! ```
//!
//! `--format json` emits the stable `nsai-analyze/v1` schema: one
//! object with `files`, `errors`, `warnings` and `waivers` counts and a
//! `findings` array of `{rule, path, line, severity, message, waived}`
//! — including waived findings, which the text format suppresses
//! (waived findings never affect the exit code in either format).
//! `waivers` counts the waived findings, the waiver debt; the text
//! format's stderr summary line reports the same count.
//!
//! Exit codes: `0` clean, `1` findings at deny severity (or any finding
//! under `--deny-warnings`), `2` usage or configuration error.

use nsai_analyze::{collect_callers, collect_sources, rules, Config, Finding, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

struct Args {
    root: PathBuf,
    config: Option<PathBuf>,
    format: Format,
    deny_warnings: bool,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        config: None,
        format: Format::Text,
        deny_warnings: false,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a path")?));
            }
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    other => {
                        return Err(format!(
                            "--format must be `text` or `json`, got {:?}",
                            other.unwrap_or("nothing")
                        ))
                    }
                };
            }
            "--deny-warnings" => args.deny_warnings = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                return Err("usage: nsai-analyze [--root <dir>] [--config <lint.toml>] \
                            [--format text|json] [--deny-warnings] [--quiet]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    Ok(args)
}

/// JSON string escaping per RFC 8259 (the analyzer is dependency-free,
/// so this is hand-rolled): `"`, `\`, and control characters.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the `nsai-analyze/v1` report object.
fn render_json(
    findings: &[Finding],
    files: usize,
    denied: usize,
    warned: usize,
    waived: usize,
) -> String {
    let mut out = String::from("{\n  \"schema\": \"nsai-analyze/v1\",\n");
    out.push_str(&format!(
        "  \"files\": {files},\n  \"errors\": {denied},\n  \"warnings\": {warned},\n  \
         \"waivers\": {waived},\n"
    ));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
             \"severity\": \"{}\", \"message\": \"{}\", \"waived\": {}}}",
            json_escape(&f.rule),
            json_escape(&f.path),
            f.line,
            f.severity,
            json_escape(&f.message),
            f.waived
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };

    let config = match &args.config {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))
            .and_then(|src| Config::parse(&src).map_err(|e| e.to_string())),
        None => nsai_analyze::load_config(&args.root).map_err(|e| e.to_string()),
    };
    let config = match config {
        Ok(config) => config,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };

    // `files` counts the scanned set; the exempt trees ride along as
    // `dead-pub` call sites only.
    let (files, callers) = match collect_sources(&args.root, &config)
        .and_then(|files| Ok((files, collect_callers(&args.root, &config)?)))
    {
        Ok(walked) => walked,
        Err(e) => {
            eprintln!("error: walking {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };

    // The full set (waived included) feeds the JSON report; only
    // unwaived findings print in text form or count toward the exit
    // code.
    let all = rules::analyze_all(&[files.as_slice(), callers.as_slice()].concat(), &config);
    let findings: Vec<&Finding> = all.iter().filter(|f| !f.waived).collect();
    let denied = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warned = findings.len() - denied;
    let waived = all.len() - findings.len();

    match args.format {
        Format::Json => {
            println!("{}", render_json(&all, files.len(), denied, warned, waived));
        }
        Format::Text => {
            if !args.quiet {
                for finding in &findings {
                    println!("{finding}");
                }
            }
        }
    }
    if args.format == Format::Text && (!args.quiet || !findings.is_empty()) {
        eprintln!(
            "nsai-analyze: {} files, {denied} error(s), {warned} warning(s), {waived} waived",
            files.len()
        );
    }

    if denied > 0 || (args.deny_warnings && warned > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
