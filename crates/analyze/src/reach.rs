//! Pass 2: reachability-based rules over the call graph.
//!
//! Each rule is configured with `entry` points in `lint.toml`
//! (`[rules.<name>] entry = ["Server::submit", …]`) and walks the
//! conservative call graph from them; token findings are reported on
//! every reachable function with the call chain that makes the site
//! hot. `allow_fns` patterns cut the traversal — the named functions
//! and everything only reachable through them are exempt (used to model
//! containment boundaries such as the serve dispatcher's
//! `catch_unwind` around workload execution).
//!
//! Because resolution is over-approximate (see [`crate::graph`]), a
//! finding here means "possibly on the hot path"; waivers document why
//! a flagged site is acceptable, exactly as for the per-line rules.

use crate::config::{Config, Severity};
use crate::graph::CallGraph;
use crate::items::FileCtx;
use crate::rules::{contains_path_token, push_finding, Finding};
use std::collections::{BTreeMap, VecDeque};

/// Items reachable from a rule's entry points: item index → predecessor
/// item on the first (BFS, deterministic) path that reached it. Entry
/// items map to themselves.
pub fn reachable(
    graph: &CallGraph,
    seeds: &[usize],
    cut: impl Fn(usize) -> bool,
) -> BTreeMap<usize, usize> {
    let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &seed in seeds {
        if !cut(seed) && !pred.contains_key(&seed) {
            pred.insert(seed, seed);
            queue.push_back(seed);
        }
    }
    while let Some(item) = queue.pop_front() {
        for site in &graph.calls[item] {
            for &target in &site.targets {
                if cut(target) || pred.contains_key(&target) {
                    continue;
                }
                pred.insert(target, item);
                queue.push_back(target);
            }
        }
    }
    pred
}

/// The call chain that reached `item`, rendered `entry -> … -> item`.
fn chain(graph: &CallGraph, pred: &BTreeMap<usize, usize>, item: usize) -> String {
    let mut names = vec![graph.items[item].qual.clone()];
    let mut cur = item;
    while let Some(&p) = pred.get(&cur) {
        if p == cur {
            break;
        }
        names.push(graph.items[p].qual.clone());
        cur = p;
    }
    names.reverse();
    if names.len() > 6 {
        format!(
            "{} -> ... -> {}",
            names[..2].join(" -> "),
            names[names.len() - 2..].join(" -> ")
        )
    } else {
        names.join(" -> ")
    }
}

/// A token the reachability rules scan for.
enum Tok {
    /// Plain substring match (dotted method forms, `.unwrap()`).
    Sub(&'static str),
    /// Requires a non-identifier character on the left (`Vec::new`,
    /// `format!` — so `reformat!` does not match).
    Bound(&'static str),
}

impl Tok {
    fn matches(&self, code: &str) -> bool {
        match self {
            Tok::Sub(t) => code.contains(t),
            Tok::Bound(t) => contains_path_token(code, t),
        }
    }

    fn text(&self) -> &'static str {
        match self {
            Tok::Sub(t) | Tok::Bound(t) => t,
        }
    }
}

/// Shared driver: resolve entries, BFS, scan reachable bodies for
/// tokens, report with chains.
#[allow(clippy::too_many_arguments)]
fn run_reach_rule(
    rule_name: &str,
    tokens: &[Tok],
    describe: &str,
    graph: &CallGraph,
    ctxs: &[FileCtx],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    let rule = config.rule(rule_name);
    if rule.severity == Severity::Allow || rule.entry.is_empty() {
        return;
    }
    let mut seeds: Vec<usize> = Vec::new();
    for pattern in &rule.entry {
        let hits = graph.matching(pattern);
        if hits.is_empty() {
            findings.push(Finding {
                path: "lint.toml".to_string(),
                line: 1,
                rule: rule_name.to_string(),
                severity: rule.severity,
                message: format!(
                    "entry point `{pattern}` ([rules.{rule_name}] entry) matches \
                     no workspace function — renamed or removed? update lint.toml"
                ),
                waived: false,
            });
        }
        seeds.extend(hits);
    }
    let cut = |item: usize| rule.allow_fns.iter().any(|p| graph.items[item].matches(p));
    let pred = reachable(graph, &seeds, cut);

    for &item_idx in pred.keys() {
        let item = &graph.items[item_idx];
        let ctx = &ctxs[item.file];
        if !crate::rules::applies(&rule, &ctx.path) {
            continue;
        }
        let (start, end) = item.body;
        for line_idx in start..=end.min(ctx.lines.len() - 1) {
            let line = &ctx.lines[line_idx];
            if line.in_test {
                continue;
            }
            for tok in tokens {
                if !tok.matches(&line.code) {
                    continue;
                }
                let via = chain(graph, &pred, item_idx);
                push_finding(
                    findings,
                    &ctx.path,
                    line_idx,
                    rule_name,
                    rule.severity,
                    format!(
                        "`{}` {describe} (hot path: {via}) — {}",
                        tok.text().trim_start_matches('.'),
                        remedy(rule_name),
                    ),
                    ctx.waivers.waived(line_idx, rule_name),
                );
                break;
            }
        }
    }
}

fn remedy(rule_name: &str) -> &'static str {
    match rule_name {
        "hot-path-no-alloc" => {
            "preallocate at setup, reuse a buffer, or waive with the \
             justification for the allocation"
        }
        "hot-path-no-block" => {
            "restructure so the hot path never parks, or waive with the \
             justification for the wait"
        }
        _ => "return a typed error (ServeError/SubmitError) instead, or waive",
    }
}

/// `hot-path-no-alloc`: no heap allocation in functions reachable from
/// the configured serving/kernel entry points.
pub fn check_hot_path_no_alloc(
    graph: &CallGraph,
    ctxs: &[FileCtx],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    const TOKENS: &[Tok] = &[
        Tok::Bound("Vec::new"),
        Tok::Bound("Box::new"),
        Tok::Bound("Arc::new"),
        Tok::Bound("Rc::new"),
        Tok::Bound("String::new"),
        Tok::Bound("String::from"),
        Tok::Bound("format!"),
        Tok::Bound("vec!"),
        Tok::Sub(".to_string()"),
        Tok::Sub(".to_owned()"),
        Tok::Sub(".to_vec()"),
        Tok::Sub(".into_bytes()"),
        Tok::Sub(".with_capacity("),
        Tok::Sub(".collect()"),
    ];
    run_reach_rule(
        "hot-path-no-alloc",
        TOKENS,
        "allocates on a serving hot path",
        graph,
        ctxs,
        config,
        findings,
    );
}

/// `hot-path-no-block`: no parking/sleeping in functions reachable from
/// the configured entry points — a blocked worker stalls the whole
/// batch, and a blocked submitter inverts the server's backpressure
/// contract.
pub fn check_hot_path_no_block(
    graph: &CallGraph,
    ctxs: &[FileCtx],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    const TOKENS: &[Tok] = &[
        Tok::Bound("thread::sleep"),
        Tok::Sub(".join()"),
        Tok::Sub(".wait("),
        Tok::Sub(".wait_for("),
        Tok::Sub(".wait_timeout("),
        Tok::Sub(".recv()"),
        Tok::Sub(".recv_timeout("),
        Tok::Sub(".read_to_end("),
    ];
    run_reach_rule(
        "hot-path-no-block",
        TOKENS,
        "can park the calling thread on a serving hot path",
        graph,
        ctxs,
        config,
        findings,
    );
}

/// `panic-reachability`: no `unwrap`/`expect`/`panic!` in any function
/// reachable from the serving entry points. Replaces the old
/// path-prefix-scoped `panic-hygiene` rule: scope now follows the call
/// graph instead of the directory layout, so a helper in `core` that
/// the gateway calls is covered and a cold admin path in `serve` is
/// not. `allow_fns` marks containment boundaries (the dispatcher wraps
/// workload execution in `catch_unwind`, so workload panics are
/// contained by design and everything below `run_batch` is exempt).
pub fn check_panic_reachability(
    graph: &CallGraph,
    ctxs: &[FileCtx],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    const TOKENS: &[Tok] = &[
        Tok::Sub(".unwrap()"),
        Tok::Sub(".expect("),
        Tok::Bound("panic!"),
        Tok::Bound("unreachable!"),
        Tok::Bound("todo!"),
        Tok::Bound("unimplemented!"),
    ];
    run_reach_rule(
        "panic-reachability",
        TOKENS,
        "can panic on a serving path",
        graph,
        ctxs,
        config,
        findings,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, toml: &str) -> Vec<Finding> {
        let config = Config::parse(toml).expect("config");
        crate::rules::analyze(
            &[("crates/x/src/lib.rs".to_string(), src.to_string())],
            &config,
        )
    }

    const SRC: &str = "\
pub fn submit() {
    admit();
}
fn admit() {
    dispatch();
}
fn dispatch() {
    let v = Vec::new();
    slow.unwrap();
}
fn cold() {
    let v = Vec::new();
}
";

    #[test]
    fn findings_follow_the_call_graph_not_the_directory() {
        let toml = "[rules.hot-path-no-alloc]\nentry = [\"submit\"]\n";
        let findings = run(SRC, toml);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "hot-path-no-alloc");
        assert_eq!(findings[0].line, 8); // dispatch's Vec::new, not cold's
        assert!(
            findings[0].message.contains("submit -> admit -> dispatch"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn allow_fns_cut_the_traversal() {
        let toml = "[rules.hot-path-no-alloc]\nentry = [\"submit\"]\nallow_fns = [\"dispatch\"]\n";
        assert!(run(SRC, toml).is_empty());
    }

    #[test]
    fn panic_reachability_reports_with_chain_and_respects_waivers() {
        let toml = "[rules.panic-reachability]\nentry = [\"submit\"]\n";
        let findings = run(SRC, toml);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "panic-reachability");
        assert_eq!(findings[0].line, 9);

        let waived = SRC.replace(
            "slow.unwrap();",
            "slow.unwrap(); // nsai-lint: allow(panic-reachability): poisoned state is unrecoverable here.",
        );
        assert!(run(&waived, toml).is_empty());
    }

    #[test]
    fn stale_entry_points_are_findings() {
        let toml = "[rules.hot-path-no-block]\nentry = [\"Server::gone\"]\n";
        let findings = run(SRC, toml);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].path, "lint.toml");
        assert!(findings[0].message.contains("Server::gone"));
    }

    #[test]
    fn rules_are_inert_without_entry_points() {
        assert!(run(SRC, "").is_empty());
    }
}
