//! `lint.toml` parsing.
//!
//! The analyzer must run before anything else in the workspace builds,
//! so it cannot depend on a TOML crate (and the offline environment has
//! none). This module parses the small, fixed subset of TOML the config
//! actually uses: `[section]` / `[section.sub]` headers, string, bool,
//! and string-array values (single- or multi-line), and `#` comments.

use std::collections::BTreeMap;
use std::fmt;

/// How findings of a rule are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Findings fail the run (exit 1).
    Deny,
    /// Findings are reported; they fail the run only under
    /// `--deny-warnings`.
    Warn,
    /// The rule is disabled.
    Allow,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
            Severity::Allow => "allow",
        })
    }
}

/// Per-rule configuration.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Finding treatment; rules default to [`Severity::Deny`].
    pub severity: Severity,
    /// Path prefixes (workspace-relative, `/`-separated) where the rule
    /// does not apply — the module-level allowlist.
    pub allow_paths: Vec<String>,
    /// If non-empty, the rule applies *only* under these path prefixes.
    pub paths: Vec<String>,
    /// Rule-specific registry of known names (used by
    /// `failpoint-hygiene`: the failpoint sites registered for the
    /// workspace).
    pub sites: Vec<String>,
    /// Rule-specific manifest file (used by `perf-suite-coverage`: the
    /// workspace-relative path of the perf suite's workload manifest).
    pub manifest: String,
    /// Entry-point patterns for the call-graph rules
    /// (`hot-path-no-alloc`, `hot-path-no-block`, `panic-reachability`):
    /// a bare `name`, a `Type::name` qualified name, or a
    /// `module::name` suffix. The rule walks the call graph from every
    /// matching function; with no entries the rule is inert.
    pub entry: Vec<String>,
    /// Function patterns (same syntax as `entry`) that cut the
    /// traversal: matching functions and anything only reachable
    /// through them are exempt. Models containment boundaries such as
    /// `catch_unwind` around workload execution.
    pub allow_fns: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig {
            severity: Severity::Deny,
            allow_paths: Vec::new(),
            paths: Vec::new(),
            sites: Vec::new(),
            manifest: String::new(),
            entry: Vec::new(),
            allow_fns: Vec::new(),
        }
    }
}

/// The parsed `lint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes excluded from the walk entirely.
    pub exclude: Vec<String>,
    /// Directory *names* skipped at any depth (test/bench/fixture trees).
    pub exclude_dirs: Vec<String>,
    /// Keyed by rule name.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            exclude: vec!["crates/vendor".into(), "target".into()],
            exclude_dirs: vec![
                "tests".into(),
                "benches".into(),
                "examples".into(),
                "fixtures".into(),
            ],
            rules: BTreeMap::new(),
        }
    }
}

/// A config-file problem, with the 1-based line it was found on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Line number in the TOML source.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Look up a rule's config, falling back to the defaults.
    pub fn rule(&self, name: &str) -> RuleConfig {
        self.rules.get(name).cloned().unwrap_or_default()
    }

    /// Does `path` lie in an exempt tree — under a directory named in
    /// `exclude-dirs`? The rule catalog skips such files; `dead-pub`
    /// reads them as call sites only.
    pub(crate) fn exempt(&self, path: &str) -> bool {
        let mut dirs = path.split('/');
        dirs.next_back(); // the file name
        dirs.any(|dir| self.exclude_dirs.iter().any(|d| d == dir))
    }

    /// Parse `lint.toml` source text.
    pub fn parse(source: &str) -> Result<Config, ConfigError> {
        let mut config = Config::default();
        let mut section: Vec<String> = Vec::new();
        let mut lines = source.lines().enumerate().peekable();

        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let header = header.strip_suffix(']').ok_or_else(|| ConfigError {
                    line: lineno,
                    message: format!("unterminated section header {line:?}"),
                })?;
                section = header.split('.').map(|s| s.trim().to_string()).collect();
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ConfigError {
                line: lineno,
                message: format!("expected `key = value`, got {line:?}"),
            })?;
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            // Multi-line arrays: keep consuming until the bracket closes.
            if value.starts_with('[') && !balanced_array(&value) {
                for (_, continuation) in lines.by_ref() {
                    value.push(' ');
                    value.push_str(strip_comment(continuation).trim());
                    if balanced_array(&value) {
                        break;
                    }
                }
                if !balanced_array(&value) {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unterminated array for key {key:?}"),
                    });
                }
            }
            apply(&mut config, &section, &key, &value, lineno)?;
        }
        Ok(config)
    }
}

/// Route one parsed `key = value` into the config.
fn apply(
    config: &mut Config,
    section: &[String],
    key: &str,
    value: &str,
    lineno: usize,
) -> Result<(), ConfigError> {
    let section_names: Vec<&str> = section.iter().map(String::as_str).collect();
    match section_names.as_slice() {
        ["workspace"] => match key {
            "exclude" => config.exclude = parse_string_array(value, lineno)?,
            "exclude-dirs" | "exclude_dirs" => {
                config.exclude_dirs = parse_string_array(value, lineno)?
            }
            _ => {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("unknown [workspace] key {key:?}"),
                })
            }
        },
        ["rules", rule] => {
            let entry = config.rules.entry(rule.to_string()).or_default();
            match key {
                "severity" => {
                    entry.severity = match parse_string(value, lineno)?.as_str() {
                        "deny" => Severity::Deny,
                        "warn" => Severity::Warn,
                        "allow" => Severity::Allow,
                        other => {
                            return Err(ConfigError {
                                line: lineno,
                                message: format!("severity must be deny|warn|allow, got {other:?}"),
                            })
                        }
                    }
                }
                "allow" => entry.allow_paths = parse_string_array(value, lineno)?,
                "paths" => entry.paths = parse_string_array(value, lineno)?,
                "sites" => entry.sites = parse_string_array(value, lineno)?,
                "manifest" => entry.manifest = parse_string(value, lineno)?,
                "entry" => entry.entry = parse_string_array(value, lineno)?,
                "allow-fns" | "allow_fns" => entry.allow_fns = parse_string_array(value, lineno)?,
                _ => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown rule key {key:?}"),
                    })
                }
            }
        }
        _ => {
            return Err(ConfigError {
                line: lineno,
                message: format!("unknown section {:?}", section.join(".")),
            })
        }
    }
    Ok(())
}

/// Remove a trailing `#` comment, respecting string quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Is every `[` matched by a `]`, outside strings?
fn balanced_array(value: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0 && !in_str
}

fn parse_string(value: &str, lineno: usize) -> Result<String, ConfigError> {
    let value = value.trim();
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected a quoted string, got {value:?}"),
        })
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let value = value.trim();
    let inner = value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected an array, got {value:?}"),
        })?;
    let mut items = Vec::new();
    for piece in split_top_level(inner) {
        let piece = piece.trim();
        if piece.is_empty() {
            continue;
        }
        items.push(parse_string(piece, lineno)?);
    }
    Ok(items)
}

/// Split on commas that sit outside string quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                current.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    parts.push(current);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_arrays_and_comments() {
        let src = r#"
# top comment
[workspace]
exclude = ["crates/vendor", "target"] # trailing

[rules.unsafe-audit]
severity = "deny"

[rules.determinism]
severity = "warn"
allow = [
    "crates/core/src/profile.rs", # profiler internals
    "crates/serve/src/loadgen.rs",
]
"#;
        let cfg = Config::parse(src).expect("parse");
        assert_eq!(cfg.exclude, vec!["crates/vendor", "target"]);
        assert_eq!(cfg.rule("unsafe-audit").severity, Severity::Deny);
        let det = cfg.rule("determinism");
        assert_eq!(det.severity, Severity::Warn);
        assert_eq!(det.allow_paths.len(), 2);
        // Unmentioned rules default to deny with no allowlist.
        assert_eq!(cfg.rule("panic-reachability").severity, Severity::Deny);
    }

    #[test]
    fn parses_entry_and_allow_fns_keys() {
        let src = "[rules.hot-path-no-alloc]\n\
                   entry = [\"Server::submit\", \"conn::reader_loop\"]\n\
                   allow_fns = [\"run_batch\"]\n";
        let cfg = Config::parse(src).expect("parse");
        let rule = cfg.rule("hot-path-no-alloc");
        assert_eq!(rule.entry, vec!["Server::submit", "conn::reader_loop"]);
        assert_eq!(rule.allow_fns, vec!["run_batch"]);
        // Unset everywhere else.
        assert!(cfg.rule("determinism").entry.is_empty());
    }

    #[test]
    fn parses_rule_manifest_key() {
        let src = "[rules.perf-suite-coverage]\nmanifest = \"crates/bench/src/perf/suite.rs\"\n";
        let cfg = Config::parse(src).expect("parse");
        assert_eq!(
            cfg.rule("perf-suite-coverage").manifest,
            "crates/bench/src/perf/suite.rs"
        );
        // Unset on every other rule.
        assert!(cfg.rule("determinism").manifest.is_empty());
    }

    #[test]
    fn rejects_unknown_keys_with_line_numbers() {
        let err = Config::parse("[rules.x]\nseverty = \"deny\"\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = Config::parse("[nonsense]\nkey = \"v\"\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn rejects_bad_severity() {
        let err = Config::parse("[rules.x]\nseverity = \"fatal\"\n").unwrap_err();
        assert!(err.message.contains("deny|warn|allow"));
    }
}
