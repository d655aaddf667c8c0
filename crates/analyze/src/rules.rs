//! The rule catalog.
//!
//! Each rule enforces one invariant the characterization methodology
//! depends on (see CONTRIBUTING.md for the full catalog and rationale):
//!
//! | rule                    | invariant                                          |
//! |-------------------------|----------------------------------------------------|
//! | `unsafe-audit`          | every `unsafe` site carries a `SAFETY:` comment    |
//! | `pool-only-parallelism` | threads come from `nsai_tensor::par` / serve pool  |
//! | `determinism`           | no wall clocks or hash-order iteration in kernels  |
//! | `scope-coverage`        | public kernels report to the profiler              |
//! | `panic-reachability`    | nothing reachable from a serving entry can panic   |
//! | `failpoint-hygiene`     | failpoint sites are registered in `lint.toml`      |
//! | `perf-suite-coverage`   | every workload appears in the perf suite manifest  |
//! | `hot-path-no-alloc`     | no heap allocation reachable from hot entries      |
//! | `hot-path-no-block`     | nothing reachable from hot entries parks a thread  |
//! | `static-lock-order`     | the static lock acquisition-order graph is acyclic |
//! | `dead-pub`              | every plain `pub fn` is named outside its tests    |
//!
//! `unsafe-audit`, `pool-only-parallelism`, `determinism`,
//! `scope-coverage`, `failpoint-hygiene` and `perf-suite-coverage` are
//! per-line/per-file checks over the lexed stream; the rest run over
//! the workspace call graph built in [`crate::graph`] — the
//! reachability rules from entry points configured per rule in
//! `lint.toml`. Files under exempt trees (`exclude-dirs`) are seen only
//! by `dead-pub`, as call sites.
//!
//! Any rule can be waived inline with
//! `// nsai-lint: allow(<rule>): <justification>` — the justification is
//! mandatory; a bare waiver is itself a finding (`waiver-syntax`), and so
//! is a waiver naming a rule that no longer fires on the lines it covers
//! (`stale-waiver`). Waived findings are suppressed from [`analyze`] but
//! preserved (with `waived = true`) in [`analyze_all`], which is what
//! `--format json` reports.

use crate::config::{Config, RuleConfig, Severity};
use crate::graph::CallGraph;
use crate::items::{fn_decl, FileCtx};
use crate::lexer::{self, Line};
use crate::{deadpub, lockorder, reach};
use std::collections::BTreeSet;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (as used in `lint.toml` and waivers).
    pub rule: String,
    /// Effective severity after config.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// True when an inline waiver suppresses this finding. Waived
    /// findings never gate a run; they are kept so `--format json`
    /// reports the full picture (what fired, what was waived).
    pub waived: bool,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} [{}] {}",
            self.path, self.line, self.severity, self.rule, self.message
        )
    }
}

/// All rule names, in report order.
pub const RULES: &[&str] = &[
    "unsafe-audit",
    "pool-only-parallelism",
    "determinism",
    "scope-coverage",
    "panic-reachability",
    "failpoint-hygiene",
    "perf-suite-coverage",
    "hot-path-no-alloc",
    "hot-path-no-block",
    "static-lock-order",
    "dead-pub",
];

/// Analyze a set of scanned files, returning only the findings that
/// gate a run (waived findings are dropped). `files` holds
/// workspace-relative paths (always `/`-separated) and raw contents.
pub fn analyze(files: &[(String, String)], config: &Config) -> Vec<Finding> {
    analyze_all(files, config)
        .into_iter()
        .filter(|f| !f.waived)
        .collect()
}

/// Like [`analyze`] but keeps waived findings (marked `waived = true`).
/// Two passes: pass 1 prepares every file ([`FileCtx`]) and builds the
/// workspace call graph; pass 2 runs the per-file rules and the
/// interprocedural rules over them. Files under exempt trees (a
/// directory named in `exclude-dirs`) are read only as `dead-pub` call
/// sites.
pub fn analyze_all(files: &[(String, String)], config: &Config) -> Vec<Finding> {
    let (ctxs, callers): (Vec<FileCtx>, Vec<FileCtx>) = files
        .iter()
        .map(|(path, source)| FileCtx::build(path, source))
        .partition(|ctx| !config.exempt(&ctx.path));
    let graph = CallGraph::build(&ctxs);

    let mut findings = Vec::new();
    let mut seen_sites: BTreeSet<String> = BTreeSet::new();
    for ctx in &ctxs {
        findings.extend(ctx.waivers.malformed.clone());
        check_unsafe_audit(ctx, config, &mut findings);
        check_pool_only(ctx, config, &mut findings);
        check_determinism(ctx, config, &mut findings);
        check_failpoint_hygiene(ctx, config, &mut findings, &mut seen_sites);
    }
    check_scope_coverage(&ctxs, config, &mut findings);
    check_failpoint_registry_staleness(&seen_sites, config, &mut findings);
    check_perf_suite_coverage(&ctxs, config, &mut findings);

    reach::check_hot_path_no_alloc(&graph, &ctxs, config, &mut findings);
    reach::check_hot_path_no_block(&graph, &ctxs, config, &mut findings);
    reach::check_panic_reachability(&graph, &ctxs, config, &mut findings);
    lockorder::check(&graph, &ctxs, config, &mut findings);
    deadpub::check(&graph, &ctxs, &callers, config, &mut findings);
    check_stale_waivers(&ctxs, &mut findings);

    findings.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    findings
}

/// Does `rule` apply to `path` at all (severity, paths, allowlist)?
pub(crate) fn applies(rule: &RuleConfig, path: &str) -> bool {
    if rule.severity == Severity::Allow {
        return false;
    }
    if !rule.paths.is_empty() && !rule.paths.iter().any(|p| path.starts_with(p.as_str())) {
        return false;
    }
    !rule
        .allow_paths
        .iter()
        .any(|p| path.starts_with(p.as_str()))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn push_finding(
    findings: &mut Vec<Finding>,
    path: &str,
    idx: usize,
    rule: &str,
    severity: Severity,
    message: String,
    waived: bool,
) {
    findings.push(Finding {
        path: path.to_string(),
        line: idx + 1,
        rule: rule.to_string(),
        severity,
        message,
        waived,
    });
}

// ---------------------------------------------------------------- rules

/// `stale-waiver`: every rule a waiver names must suppress a finding on
/// a line the waiver covers. Runs last, over every other rule's
/// findings. A waiver that outlived its finding would silently cover
/// the next violation on that line, and it inflates the waiver debt the
/// JSON report counts. Like `waiver-syntax`, it is always deny and
/// cannot itself be waived.
fn check_stale_waivers(ctxs: &[FileCtx], findings: &mut Vec<Finding>) {
    let suppressed: BTreeSet<(&str, usize, &str)> = findings
        .iter()
        .filter(|f| f.waived)
        .map(|f| (f.path.as_str(), f.line - 1, f.rule.as_str()))
        .collect();
    let mut stale = Vec::new();
    for ctx in ctxs {
        for waiver in &ctx.waivers.directives {
            let unused: Vec<&str> = waiver
                .rules
                .iter()
                .map(String::as_str)
                .filter(|rule| {
                    !waiver
                        .targets
                        .iter()
                        .any(|&t| suppressed.contains(&(ctx.path.as_str(), t, *rule)))
                })
                .collect();
            if !unused.is_empty() {
                stale.push(Finding {
                    path: ctx.path.clone(),
                    line: waiver.line + 1,
                    rule: "stale-waiver".to_string(),
                    severity: Severity::Deny,
                    message: format!(
                        "waiver for {} suppresses no finding on the lines it covers \
                         — remove it",
                        unused.join(", ")
                    ),
                    waived: false,
                });
            }
        }
    }
    findings.extend(stale);
}

/// `unsafe-audit`: every `unsafe` keyword in code must be justified by a
/// `SAFETY:` comment — trailing on the same line, or in the contiguous
/// comment/attribute block directly above (a `/// # Safety` doc section
/// also counts, for `unsafe fn` declarations). Consecutive `unsafe`
/// lines with no other code between them share one comment, so paired
/// `unsafe impl Send/Sync` blocks need a single justification.
fn check_unsafe_audit(ctx: &FileCtx, config: &Config, findings: &mut Vec<Finding>) {
    let rule = config.rule("unsafe-audit");
    if !applies(&rule, &ctx.path) {
        return;
    }
    let lines = &ctx.lines;
    let mut covered: Vec<bool> = vec![false; lines.len()];
    for idx in 0..lines.len() {
        if !lexer::word_in(&lines[idx].code, "unsafe") || lines[idx].in_test {
            continue;
        }
        if ctx.waivers.waived(idx, "unsafe-audit") {
            covered[idx] = true;
            push_finding(
                findings,
                &ctx.path,
                idx,
                "unsafe-audit",
                rule.severity,
                "`unsafe` without a `// SAFETY:` comment explaining why the invariants hold"
                    .to_string(),
                true,
            );
            continue;
        }
        if has_safety(&lines[idx].comment) {
            covered[idx] = true;
            continue;
        }
        // Walk the contiguous comment/attribute block above; chain
        // through directly-preceding `unsafe` lines that are covered.
        let mut j = idx;
        let mut ok = false;
        while j > 0 {
            j -= 1;
            let above = &lines[j];
            let code = above.code.trim();
            if code.is_empty() && above.comment.trim().is_empty() {
                break; // blank line ends the block
            }
            if code.is_empty() || code.starts_with("#[") {
                if has_safety(&above.comment) {
                    ok = true;
                    break;
                }
                continue;
            }
            if lexer::word_in(&above.code, "unsafe") {
                ok = covered[j];
            }
            break;
        }
        covered[idx] = ok;
        if !ok {
            push_finding(
                findings,
                &ctx.path,
                idx,
                "unsafe-audit",
                rule.severity,
                "`unsafe` without a `// SAFETY:` comment explaining why the invariants hold"
                    .to_string(),
                false,
            );
        }
    }
}

fn has_safety(comment: &str) -> bool {
    comment.contains("SAFETY:") || comment.contains("# Safety")
}

/// `pool-only-parallelism`: raw thread creation is reserved for the
/// `nsai_tensor::par` pool and the serve worker pool (allowlisted in
/// `lint.toml`). Anywhere else it would bypass `NEUROSYM_THREADS` and
/// lose profiler scope propagation.
fn check_pool_only(ctx: &FileCtx, config: &Config, findings: &mut Vec<Finding>) {
    let rule = config.rule("pool-only-parallelism");
    if !applies(&rule, &ctx.path) {
        return;
    }
    const TOKENS: &[&str] = &["thread::spawn", "thread::Builder", "thread::scope"];
    for (idx, line) in ctx.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for token in TOKENS {
            if contains_path_token(&line.code, token) {
                push_finding(
                    findings,
                    &ctx.path,
                    idx,
                    "pool-only-parallelism",
                    rule.severity,
                    format!(
                        "`{token}` outside the sanctioned pools — use \
                         `nsai_tensor::par` so NEUROSYM_THREADS and profiler \
                         scope propagation stay sound"
                    ),
                    ctx.waivers.waived(idx, "pool-only-parallelism"),
                );
                break;
            }
        }
    }
}

/// `determinism`: measurement and workload paths must not read wall
/// clocks or iterate hash tables — both make runs non-reproducible.
/// Timing modules that legitimately need clocks (the profiler itself,
/// the serving runtime, load generators) are allowlisted in `lint.toml`;
/// clock reads that only feed profiler metadata carry inline waivers.
fn check_determinism(ctx: &FileCtx, config: &Config, findings: &mut Vec<Finding>) {
    let rule = config.rule("determinism");
    if !applies(&rule, &ctx.path) {
        return;
    }
    const CLOCKS: &[&str] = &["Instant::now", "SystemTime"];
    const HASH_ORDER: &[&str] = &["HashMap", "HashSet"];
    for (idx, line) in ctx.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let waived = ctx.waivers.waived(idx, "determinism");
        for token in CLOCKS {
            if contains_path_token(&line.code, token) {
                push_finding(
                    findings,
                    &ctx.path,
                    idx,
                    "determinism",
                    rule.severity,
                    format!(
                        "`{token}` in a measurement/workload path — wall clocks \
                         make runs non-reproducible; allowlist the module in \
                         lint.toml or waive the site if it only feeds profiler \
                         metadata"
                    ),
                    waived,
                );
                break;
            }
        }
        for token in HASH_ORDER {
            if lexer::word_in(&line.code, token) {
                push_finding(
                    findings,
                    &ctx.path,
                    idx,
                    "determinism",
                    rule.severity,
                    format!(
                        "`{token}` iteration order is nondeterministic — use \
                         BTreeMap/BTreeSet, or waive if the map is provably \
                         never iterated"
                    ),
                    waived,
                );
                break;
            }
        }
    }
}

/// `failpoint-hygiene`: every fault-injection site named at a
/// `failpoint::fire(...)` / `failpoint::eval(...)` / `batch_failpoint(...)`
/// call under the configured `paths` must be registered in `lint.toml`
/// (`[rules.failpoint-hygiene] sites = [...]`) or carry an inline
/// waiver. The registry is the reviewed catalog chaos schedules and CI
/// fault matrices draw from; an unregistered hot-path site is injectable
/// fault surface nobody audited. Only literal site names are checked —
/// the one sanctioned variable-site call is the `batch_failpoint`
/// plumbing helper itself.
fn check_failpoint_hygiene(
    ctx: &FileCtx,
    config: &Config,
    findings: &mut Vec<Finding>,
    seen_sites: &mut BTreeSet<String>,
) {
    const TOKENS: &[&str] = &["failpoint::fire(", "failpoint::eval(", "batch_failpoint("];
    let rule = config.rule("failpoint-hygiene");
    let enforced = applies(&rule, &ctx.path) && !rule.paths.is_empty();
    for (idx, line) in ctx.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        // Declaration lines (`fn batch_failpoint(...)`) define the
        // plumbing, they are not injection sites.
        if fn_decl(&line.code).is_some() {
            continue;
        }
        let Some(token) = TOKENS.iter().find(|t| line.code.contains(*t)) else {
            continue;
        };
        // The blanked `code` proves the token is real code; the site
        // literal itself must come from the raw line.
        let Some(site) = ctx
            .raw
            .get(idx)
            .and_then(|raw| extract_site_literal(raw, token))
        else {
            continue; // variable site: the sanctioned plumbing helper
        };
        seen_sites.insert(site.clone());
        if !enforced {
            continue;
        }
        if !rule.sites.iter().any(|s| s == &site) {
            push_finding(
                findings,
                &ctx.path,
                idx,
                "failpoint-hygiene",
                rule.severity,
                format!(
                    "failpoint site `{site}` is not registered in lint.toml \
                     ([rules.failpoint-hygiene] sites) — register it so chaos \
                     schedules and the CI fault matrix know it exists, or \
                     waive this line"
                ),
                ctx.waivers.waived(idx, "failpoint-hygiene"),
            );
        }
    }
}

/// The registry side of `failpoint-hygiene`: a site listed in
/// `lint.toml` that no scanned file names is stale — it silently
/// disarms every chaos schedule that targets it.
fn check_failpoint_registry_staleness(
    seen_sites: &BTreeSet<String>,
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    let rule = config.rule("failpoint-hygiene");
    if rule.severity == Severity::Allow {
        return;
    }
    for site in &rule.sites {
        if !seen_sites.contains(site) {
            findings.push(Finding {
                path: "lint.toml".to_string(),
                line: 1,
                rule: "failpoint-hygiene".to_string(),
                severity: rule.severity,
                message: format!(
                    "registered failpoint site `{site}` does not appear in any \
                     scanned source file — remove the stale registration or \
                     restore the site"
                ),
                waived: false,
            });
        }
    }
}

/// Extract the first string literal following `token` on a raw source
/// line: `failpoint::fire("a::b::c")` → `a::b::c`. Returns `None` when
/// the argument is not a literal on the same line.
fn extract_site_literal(raw: &str, token: &str) -> Option<String> {
    let after = &raw[raw.find(token)? + token.len()..];
    let open = after.find('"')?;
    let body = &after[open + 1..];
    let close = body.find('"')?;
    Some(body[..close].to_string())
}

/// All `"…"` string literals on a raw source line, in order, stopping
/// at a `//` comment outside a string. Raw lines are required because
/// the lexer blanks string contents in [`Line::code`].
fn string_literals(raw: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut buf = String::new();
    let mut in_lit = false;
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        if in_lit {
            match c {
                '"' => {
                    out.push(std::mem::take(&mut buf));
                    in_lit = false;
                }
                '\\' => {
                    buf.push('\\');
                    if let Some(escaped) = chars.next() {
                        buf.push(escaped);
                    }
                }
                _ => buf.push(c),
            }
        } else {
            match c {
                '"' => in_lit = true,
                '/' if chars.peek() == Some(&'/') => break,
                _ => {}
            }
        }
    }
    out
}

/// `perf-suite-coverage`: every workload registered under the rule's
/// `paths` must appear in the perf suite's workload manifest — the
/// `WORKLOAD_SUITE` const in the rule's `manifest` file — so a new
/// workload cannot land without continuous-characterization coverage.
/// A workload is a bodied, non-test `fn name` declaration whose first
/// string literal is the registry name (the `Workload::name` impl);
/// the bodyless trait signature is skipped. Manifest entries naming no
/// registered workload are stale — they promise coverage the suite no
/// longer delivers — and are reported against the manifest file.
fn check_perf_suite_coverage(ctxs: &[FileCtx], config: &Config, findings: &mut Vec<Finding>) {
    let rule = config.rule("perf-suite-coverage");
    if rule.severity == Severity::Allow || rule.paths.is_empty() || rule.manifest.is_empty() {
        return;
    }

    // Manifest side: the string literals of the `WORKLOAD_SUITE` const.
    let Some(manifest_ctx) = ctxs.iter().find(|c| c.path == rule.manifest) else {
        findings.push(Finding {
            path: rule.manifest.clone(),
            line: 1,
            rule: "perf-suite-coverage".to_string(),
            severity: rule.severity,
            message: format!(
                "perf suite manifest `{}` is not in the scanned file set — \
                 moved or deleted? update [rules.perf-suite-coverage] in \
                 lint.toml",
                rule.manifest
            ),
            waived: false,
        });
        return;
    };
    let mut manifest_names: Vec<(String, usize)> = Vec::new();
    let mut in_array = false;
    let mut closed = false;
    for (idx, raw) in manifest_ctx.raw.iter().enumerate() {
        if !in_array {
            if raw.trim_start().starts_with("//")
                || !raw.contains("WORKLOAD_SUITE")
                || !raw.contains("const")
            {
                continue;
            }
            in_array = true;
        }
        for literal in string_literals(raw) {
            manifest_names.push((literal, idx));
        }
        if raw.contains("];") {
            closed = true;
            break;
        }
    }
    if !closed {
        findings.push(Finding {
            path: rule.manifest.clone(),
            line: 1,
            rule: "perf-suite-coverage".to_string(),
            severity: rule.severity,
            message: format!(
                "perf suite manifest `{}` has no terminated `const \
                 WORKLOAD_SUITE` array — the coverage check has nothing to \
                 verify against",
                rule.manifest
            ),
            waived: false,
        });
        return;
    }

    // Workload side: bodied, non-test `fn name` declarations under the
    // rule's paths; the first string literal in the body is the
    // registry name (read from raw lines — `Line::code` blanks it).
    struct Registered {
        name: String,
        file: usize,
        decl_idx: usize,
        waived: bool,
    }
    let mut registered: Vec<Registered> = Vec::new();
    for (file_idx, ctx) in ctxs.iter().enumerate() {
        if !applies(&rule, &ctx.path) {
            continue;
        }
        let lines = &ctx.lines;
        for (idx, line) in lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some((decl_name, _)) = fn_decl(&line.code) else {
                continue;
            };
            if decl_name != "name" || !fn_has_body(lines, idx) {
                continue; // not a registry accessor, or a bodyless trait signature
            }
            let sig_depth = line.depth_start;
            let mut found = None;
            for body_idx in idx..lines.len() {
                if body_idx > idx && lines[body_idx - 1].depth_end <= sig_depth {
                    break; // the body closed on a previous line
                }
                if let Some(literal) = ctx
                    .raw
                    .get(body_idx)
                    .map(|raw| string_literals(raw))
                    .and_then(|lits| lits.into_iter().next())
                {
                    found = Some(literal);
                    break;
                }
            }
            if let Some(name) = found {
                registered.push(Registered {
                    name,
                    file: file_idx,
                    decl_idx: idx,
                    waived: ctx.waivers.waived(idx, "perf-suite-coverage"),
                });
            }
        }
    }

    let manifest_set: BTreeSet<&str> = manifest_names.iter().map(|(n, _)| n.as_str()).collect();
    let registered_set: BTreeSet<&str> = registered.iter().map(|r| r.name.as_str()).collect();

    for reg in &registered {
        if manifest_set.contains(reg.name.as_str()) {
            continue;
        }
        push_finding(
            findings,
            &ctxs[reg.file].path,
            reg.decl_idx,
            "perf-suite-coverage",
            rule.severity,
            format!(
                "workload `{}` is missing from the perf suite manifest \
                 (`WORKLOAD_SUITE` in {}) — add it so the continuous \
                 characterization baseline measures it, or waive this line",
                reg.name, rule.manifest
            ),
            reg.waived,
        );
    }
    for (name, idx) in &manifest_names {
        if !registered_set.contains(name.as_str()) {
            push_finding(
                findings,
                &rule.manifest,
                *idx,
                "perf-suite-coverage",
                rule.severity,
                format!(
                    "perf suite manifest entry `{name}` names no workload \
                     registered under the configured paths — remove the stale \
                     entry or restore the workload"
                ),
                false,
            );
        }
    }
}

/// `scope-coverage`: every `pub fn` in the configured kernel paths must
/// open a profiler scope or taxonomy event — directly (`run_op`,
/// `time_op`, `profile::record`, …) or by delegating to another public
/// kernel that does (computed as a fixed point over the file set).
fn check_scope_coverage(ctxs: &[FileCtx], config: &Config, findings: &mut Vec<Finding>) {
    let rule = config.rule("scope-coverage");
    if rule.severity == Severity::Allow || rule.paths.is_empty() {
        return;
    }
    const INSTRUMENT: &[&str] = &[
        "run_op",
        "time_op",
        "time_op_with",
        "profile::record",
        "phase_scope",
        "Scope::capture",
    ];

    struct KernelFn {
        file: usize,
        decl_idx: usize,
        name: String,
        body: String,
        covered: bool,
        waived: bool,
        /// Only `pub fn`s are *reported*; private helpers still
        /// participate in delegation (a pub kernel may wrap a private
        /// instrumented one).
        is_pub: bool,
    }

    let mut fns: Vec<KernelFn> = Vec::new();
    for (file_idx, ctx) in ctxs.iter().enumerate() {
        if !applies(&rule, &ctx.path) {
            continue;
        }
        for (idx, line) in ctx.lines.iter().enumerate() {
            if line.in_test {
                continue;
            }
            let Some((name, is_pub)) = fn_decl(&line.code) else {
                continue;
            };
            let Some(body) = fn_body(&ctx.lines, idx) else {
                continue; // trait signature or unparsable body — skip
            };
            let covered = INSTRUMENT.iter().any(|t| body.contains(t));
            fns.push(KernelFn {
                file: file_idx,
                decl_idx: idx,
                name,
                body,
                covered,
                waived: ctx.waivers.waived(idx, "scope-coverage"),
                is_pub,
            });
        }
    }

    // Fixed point: a fn delegating to a covered fn is covered.
    loop {
        let covered_names: BTreeSet<String> = fns
            .iter()
            .filter(|f| f.covered)
            .map(|f| f.name.clone())
            .collect();
        let mut changed = false;
        for f in fns.iter_mut() {
            if f.covered {
                continue;
            }
            if covered_names.iter().any(|n| lexer::word_in(&f.body, n)) {
                f.covered = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for f in &fns {
        if f.is_pub && !f.covered {
            push_finding(
                findings,
                &ctxs[f.file].path,
                f.decl_idx,
                "scope-coverage",
                rule.severity,
                format!(
                    "public kernel entry point `{}` never reports to the \
                     profiler (no run_op/time_op/phase_scope, and no \
                     delegation to an instrumented kernel)",
                    f.name
                ),
                f.waived,
            );
        }
    }
}

/// Does the `fn` declared at `decl_idx` have a body? A `{` before the
/// first `;` (scanning from the declaration, past multi-line
/// signatures) means yes; a `;` first is a bodyless trait signature.
/// Unlike [`fn_body`], this also recognizes single-line bodies
/// (`fn name(&self) -> &'static str { "lnn" }`).
fn fn_has_body(lines: &[Line], decl_idx: usize) -> bool {
    for line in &lines[decl_idx..] {
        for c in line.code.chars() {
            match c {
                '{' => return true,
                ';' => return false,
                _ => {}
            }
        }
    }
    false
}

/// The body text of the fn declared at `decl_idx`: from its opening
/// brace to the line where depth returns to the declaration's level.
/// Returns `None` for bodyless declarations (trait signatures).
fn fn_body(lines: &[Line], decl_idx: usize) -> Option<String> {
    let sig_depth = lines[decl_idx].depth_start;
    let mut idx = decl_idx;
    // Find the line that opens the body (may be past a multi-line
    // signature). A `;` at signature depth first means no body.
    loop {
        let line = lines.get(idx)?;
        if line.depth_end > sig_depth {
            break;
        }
        if line.code.contains(';') && line.depth_end == sig_depth {
            return None;
        }
        idx += 1;
    }
    let mut body = String::new();
    for line in &lines[idx..] {
        body.push_str(&line.code);
        body.push('\n');
        if line.depth_end <= sig_depth {
            break;
        }
    }
    Some(body)
}

/// Match a `::`-path token such as `thread::spawn` or `Instant::now`,
/// requiring an identifier boundary before the first segment (so
/// `mythread::spawn` does not match, `std::thread::spawn` does).
pub(crate) fn contains_path_token(code: &str, token: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = code[from..].find(token) {
        let at = from + pos;
        let before_ok = at == 0 || {
            let b = bytes[at - 1];
            !(b == b'_' || b.is_ascii_alphanumeric())
        };
        if before_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str, toml: &str) -> Vec<Finding> {
        let config = Config::parse(toml).expect("config");
        analyze(&[(path.to_string(), src.to_string())], &config)
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_safety_accepted() {
        let bad = "fn f() {\n    let x = unsafe { y() };\n}\n";
        let findings = run("a.rs", bad, "");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unsafe-audit");
        assert_eq!(findings[0].line, 2);

        let good =
            "fn f() {\n    // SAFETY: y upholds its contract.\n    let x = unsafe { y() };\n}\n";
        assert!(run("a.rs", good, "").is_empty());
    }

    #[test]
    fn consecutive_unsafe_lines_share_one_safety_comment() {
        let src = "// SAFETY: T is Send, access is disjoint.\nunsafe impl<T: Send> Sync for W<T> {}\nunsafe impl<T: Send> Send for W<T> {}\n";
        assert!(run("a.rs", src, "").is_empty());
    }

    #[test]
    fn waiver_with_justification_suppresses_waiver_without_fails() {
        let src = "// nsai-lint: allow(determinism): clock feeds profiler metadata only.\nlet t = Instant::now();\n";
        assert!(run("a.rs", src, "").is_empty());

        let bare = "// nsai-lint: allow(determinism)\nlet t = Instant::now();\n";
        let findings = run("a.rs", bare, "");
        assert!(findings.iter().any(|f| f.rule == "waiver-syntax"));
    }

    #[test]
    fn waived_findings_survive_in_analyze_all() {
        let src = "// nsai-lint: allow(determinism): clock feeds profiler metadata only.\nlet t = Instant::now();\n";
        let config = Config::parse("").expect("config");
        let all = analyze_all(&[("a.rs".to_string(), src.to_string())], &config);
        assert_eq!(all.len(), 1, "{all:?}");
        assert!(all[0].waived);
        assert_eq!(all[0].rule, "determinism");
    }

    #[test]
    fn thread_spawn_flagged_unless_allowlisted() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        let findings = run("crates/x/src/lib.rs", src, "");
        assert_eq!(findings[0].rule, "pool-only-parallelism");

        let toml = "[rules.pool-only-parallelism]\nallow = [\"crates/x\"]\n";
        assert!(run("crates/x/src/lib.rs", src, toml).is_empty());
    }

    #[test]
    fn scope_coverage_accepts_direct_and_delegated_instrumentation() {
        let toml = "[rules.scope-coverage]\npaths = [\"crates/tensor/src/ops\"]\n";
        let src = "impl T {\n    pub fn base(&self) -> u32 {\n        run_op(\"x\", || 1)\n    }\n    pub fn wrapper(&self) -> u32 {\n        self.base()\n    }\n    pub fn bare(&self) -> u32 {\n        41\n    }\n}\n";
        let findings = run("crates/tensor/src/ops/x.rs", src, toml);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("`bare`"));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); let i = Instant::now(); std::thread::spawn(|| {}); }\n}\n";
        assert!(run("crates/x/src/lib.rs", src, "").is_empty());
    }

    #[test]
    fn failpoint_sites_must_be_registered_or_waived() {
        let toml = "[rules.failpoint-hygiene]\npaths = [\"crates/serve/src\"]\nsites = [\"serve::server::admission\"]\n";
        let registered =
            "fn f() {\n    if failpoint::fire(\"serve::server::admission\") {\n        return;\n    }\n}\n";
        assert!(run("crates/serve/src/server.rs", registered, toml).is_empty());

        let stray = "fn f() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n    let _ = failpoint::fire(\"serve::server::rogue\");\n}\n";
        let findings = run("crates/serve/src/server.rs", stray, toml);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "failpoint-hygiene");
        assert!(findings[0].message.contains("rogue"));

        let waived = "fn f() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n    // nsai-lint: allow(failpoint-hygiene): prototype site, registry follows in the next PR.\n    let _ = failpoint::fire(\"serve::server::rogue\");\n}\n";
        assert!(run("crates/serve/src/server.rs", waived, toml).is_empty());
    }

    #[test]
    fn failpoint_rule_is_scoped_and_flags_stale_registrations() {
        let toml = "[rules.failpoint-hygiene]\npaths = [\"crates/serve/src\"]\nsites = [\"serve::server::admission\"]\n";
        // Outside the configured paths: literal sites are never flagged
        // (the serve file keeps the registered site alive for staleness).
        let config = Config::parse(toml).expect("config");
        let serve = "fn f() {\n    let _ = failpoint::fire(\"serve::server::admission\");\n}\n";
        let elsewhere = "fn g() {\n    let _ = failpoint::fire(\"bench::unregistered\");\n}\n";
        let findings = analyze(
            &[
                ("crates/serve/src/server.rs".to_string(), serve.to_string()),
                ("crates/bench/src/lib.rs".to_string(), elsewhere.to_string()),
            ],
            &config,
        );
        assert!(findings.is_empty(), "{findings:?}");

        // A registered site that appears nowhere is stale.
        let findings = run("crates/serve/src/server.rs", "fn f() {}\n", toml);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "failpoint-hygiene");
        assert_eq!(findings[0].path, "lint.toml");
        assert!(findings[0].message.contains("stale"));
    }

    #[test]
    fn severity_warn_and_allow_respected() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\n";
        let toml = "[rules.determinism]\nseverity = \"warn\"\n";
        let findings = run("a.rs", src, toml);
        assert_eq!(findings[0].severity, Severity::Warn);
        let toml = "[rules.determinism]\nseverity = \"allow\"\n";
        assert!(run("a.rs", src, toml).is_empty());
    }

    #[test]
    fn string_literals_reads_raw_lines_and_stops_at_comments() {
        assert_eq!(
            string_literals(r#"&["lnn", "ltn"]; // "not this one""#),
            vec!["lnn", "ltn"]
        );
        assert_eq!(string_literals("// \"comment only\""), Vec::<String>::new());
        assert_eq!(string_literals("no strings here"), Vec::<String>::new());
        assert_eq!(string_literals(r#""esc\"aped""#), vec![r#"esc\"aped"#]);
    }

    const SUITE_TOML: &str = "[rules.perf-suite-coverage]\n\
                              paths = [\"workloads/\"]\n\
                              manifest = \"bench/suite.rs\"\n";

    fn suite_files(manifest: &str, workload: &str) -> Vec<(String, String)> {
        vec![
            ("bench/suite.rs".to_string(), manifest.to_string()),
            ("workloads/lnn.rs".to_string(), workload.to_string()),
        ]
    }

    #[test]
    fn unmanifested_workload_and_stale_entry_are_both_reported() {
        let config = Config::parse(SUITE_TOML).expect("config");
        let manifest = "pub const WORKLOAD_SUITE: &[&str] = &[\"ltn\"];\n";
        let workload = "impl Workload for Lnn {\n    fn name(&self) -> &'static str {\n        \"lnn\"\n    }\n}\n";
        let findings = analyze(&suite_files(manifest, workload), &config);
        assert_eq!(findings.len(), 2, "{findings:?}");
        // Stale entry, reported against the manifest file at the const.
        assert_eq!(findings[0].path, "bench/suite.rs");
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("`ltn`"), "{findings:?}");
        // Missing workload, reported at the `fn name` declaration.
        assert_eq!(findings[1].path, "workloads/lnn.rs");
        assert_eq!(findings[1].line, 2);
        assert!(findings[1].message.contains("`lnn`"), "{findings:?}");
    }

    #[test]
    fn manifested_workloads_trait_sigs_and_tests_are_clean() {
        let config = Config::parse(SUITE_TOML).expect("config");
        // Multi-line manifest array, single-line fn, bodyless trait
        // signature, and an in-test impl: all fine.
        let manifest = "pub const WORKLOAD_SUITE: &[&str] = &[\n    \"lnn\", // phased\n];\n";
        let workload = "pub trait Workload {\n    fn name(&self) -> &'static str;\n}\n\
                        impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n\
                        #[cfg(test)]\nmod tests {\n    struct Echo;\n    impl Workload for Echo {\n        fn name(&self) -> &'static str { \"echo\" }\n    }\n}\n";
        let findings = analyze(&suite_files(manifest, workload), &config);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn missing_or_markerless_manifest_is_itself_a_finding() {
        let config = Config::parse(SUITE_TOML).expect("config");
        let workload =
            "impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n";
        let findings = analyze(
            &[("workloads/lnn.rs".to_string(), workload.to_string())],
            &config,
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "bench/suite.rs");
        assert!(findings[0].message.contains("not in the scanned file set"));

        let findings = analyze(&suite_files("pub fn unrelated() {}\n", workload), &config);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("WORKLOAD_SUITE"),
            "{findings:?}"
        );
    }

    #[test]
    fn suite_coverage_is_inert_without_manifest_or_paths() {
        let workload =
            "impl Workload for Lnn {\n    fn name(&self) -> &'static str { \"lnn\" }\n}\n";
        // No [rules.perf-suite-coverage] section at all: nothing runs.
        assert!(run("workloads/lnn.rs", workload, "").is_empty());
        // Severity allow disables it even when configured.
        let toml = "[rules.perf-suite-coverage]\nseverity = \"allow\"\n\
                    paths = [\"workloads/\"]\nmanifest = \"bench/suite.rs\"\n";
        assert!(run("workloads/lnn.rs", workload, toml).is_empty());
    }
}
