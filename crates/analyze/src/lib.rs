//! # nsai-analyze
//!
//! An offline, dependency-free static analyzer for this workspace. It
//! machine-checks the invariants the paper's methodology relies on —
//! profiler attribution, bitwise determinism, and race/deadlock freedom
//! of the parallel and serving stacks — which the rest of the repo
//! otherwise enforces only by convention:
//!
//! - every `unsafe` site is audited (`unsafe-audit`),
//! - all parallelism flows through the instrumented pool
//!   (`pool-only-parallelism`),
//! - kernels and workloads are clock- and hash-order-free
//!   (`determinism`),
//! - public kernels report operator events (`scope-coverage`),
//! - nothing reachable from a serving entry point can panic, allocate,
//!   or park (`panic-reachability`, `hot-path-no-alloc`,
//!   `hot-path-no-block`),
//! - the static lock acquisition-order graph is acyclic
//!   (`static-lock-order`), in the same edge language the
//!   `NEUROSYM_SANITIZE=1` runtime detector exports,
//! - every plain `pub fn` has a caller outside its own file's tests
//!   (`dead-pub`).
//!
//! The analyzer runs in two passes: pass 1 lexes every file and builds
//! a workspace model — item table ([`items`]) and a conservative
//! name-resolution call graph ([`graph`]) — and pass 2 runs the rule
//! catalog ([`rules`]) over it, including reachability rules
//! ([`reach`]) from entry points configured in `lint.toml`. Files under
//! exempt trees (tests, examples, benches) are read only as `dead-pub`
//! call sites ([`deadpub`]).
//!
//! Configuration lives in the checked-in `lint.toml` at the workspace
//! root; individual sites are waived inline with
//! `// nsai-lint: allow(<rule>): <justification>`.
//!
//! Run it as `cargo run -p nsai-analyze -- --deny-warnings` (what CI's
//! `lint-fast` job does), or use [`analyze_path`] / [`rules::analyze`]
//! programmatically (the fixture tests do).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod deadpub;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod lockorder;
pub mod reach;
pub mod rules;

pub use config::{Config, ConfigError, Severity};
pub use rules::{analyze_all, Finding, RULES};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Collect every `.rs` file under `root` that the rule catalog scans:
/// neither excluded nor under an exempt tree (`exclude-dirs`). Returns
/// workspace-relative `/`-separated paths with file contents, sorted by
/// path for deterministic reports.
pub fn collect_sources(root: &Path, config: &Config) -> io::Result<Vec<(String, String)>> {
    walk(root, config, false)
}

/// Collect the `.rs` files under exempt trees (tests, examples,
/// benches, fixtures), in the same form as [`collect_sources`].
/// `dead-pub` reads them as call sites; no other rule sees them.
pub fn collect_callers(root: &Path, config: &Config) -> io::Result<Vec<(String, String)>> {
    walk(root, config, true)
}

/// Walk `root`, skipping excluded paths and dot-directories, and keep
/// the `.rs` files that are (`exempt`) or are not under an exempt tree.
fn walk(root: &Path, config: &Config, exempt: bool) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack = vec![(root.to_path_buf(), false)];
    while let Some((dir, in_exempt)) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = relative(root, &path);
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.starts_with('.') || config.exclude.contains(&rel) {
                    continue;
                }
                let below = in_exempt || config.exclude_dirs.iter().any(|d| d.as_str() == name);
                if below && !exempt {
                    continue;
                }
                stack.push((path, below));
            } else if in_exempt == exempt
                && name.ends_with(".rs")
                && !config.exclude.iter().any(|p| rel.starts_with(p.as_str()))
            {
                let source = fs::read_to_string(&path)?;
                files.push((rel, source));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Load `lint.toml` from `root` (defaults apply when absent), walk the
/// tree, and run the whole rule catalog.
pub fn analyze_path(root: &Path) -> io::Result<Vec<Finding>> {
    let config = load_config(root).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut files = collect_sources(root, &config)?;
    files.extend(collect_callers(root, &config)?);
    Ok(rules::analyze(&files, &config))
}

/// The static lock acquisition-order graph of a scanned file set, as
/// sorted `(held, acquired)` label pairs — the same edge language
/// `parking_lot::deadlock::observed_edges()` exports at runtime under
/// `NEUROSYM_SANITIZE=1`. Because the static side over-approximates
/// (name resolution, `let`-bound guards held to the end of the
/// function), every edge the runtime detector can ever observe must
/// appear here; the `lock_order_crosscheck` integration test asserts
/// that superset property against a live run.
pub fn lock_order_edges(files: &[(String, String)]) -> Vec<(String, String)> {
    let ctxs: Vec<items::FileCtx> = files
        .iter()
        .map(|(path, source)| items::FileCtx::build(path, source))
        .collect();
    let graph = graph::CallGraph::build(&ctxs);
    let mut edges: Vec<(String, String)> = lockorder::lock_edges(&graph, &ctxs)
        .into_iter()
        .map(|e| (e.from, e.to))
        .collect();
    edges.sort();
    edges.dedup();
    edges
}

/// Parse `<root>/lint.toml`, falling back to [`Config::default`] when
/// the file does not exist.
pub fn load_config(root: &Path) -> Result<Config, ConfigError> {
    let path = root.join("lint.toml");
    match fs::read_to_string(&path) {
        Ok(source) => Config::parse(&source),
        Err(_) => Ok(Config::default()),
    }
}

/// Workspace-relative `/`-separated form of `path`.
fn relative(root: &Path, path: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
