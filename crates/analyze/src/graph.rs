//! Workspace call graph with conservative name resolution.
//!
//! The analyzer has no type information, so resolution is by name and
//! deliberately over-approximate: a call site resolves to *every*
//! workspace item it could plausibly name, and reachability rules treat
//! each candidate as reachable. Calls that resolve to nothing in the
//! workspace (std, vendored crates, closures, turbofish forms) are kept
//! as an explicit **unresolved** edge class rather than silently
//! dropped — fixture tests pin both counts so resolution changes are
//! visible in review.
//!
//! Resolution rules, in order:
//! - `name(…)` and `recv.name(…)` → every item named `name` in the
//!   *caller's crate*. Bare calls to foreign fns need an import and
//!   this tree imports modules, not free fns, so cross-crate calls are
//!   path-qualified; cross-crate *method* dispatch (`replica
//!   .run_batch(…)`, `server.submit(…)`) is deliberately left in the
//!   unresolved class — resolving method names workspace-wide drowns
//!   the graph in std-collision edges (`.collect()` is not
//!   `Waivers::collect`). Reachability rules recover those seams by
//!   listing both sides in `entry` / `allow-fns` (see lint.toml).
//! - `Qual::name(…)` → items whose qualified name is `Qual::name`, else
//!   items named `name` defined in a module whose path ends in `Qual`,
//!   else (for `Self`/`self`/`crate`/`super` prefixes) same-crate items
//!   named `name`;
//! - `name!(…)` macro invocations and keyword forms (`if (…)`) are not
//!   calls.

use crate::items::{self, FileCtx, Item};
use std::collections::BTreeMap;

/// One call expression inside an item's body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// 0-based line of the call.
    pub line_idx: usize,
    /// Display form of the callee reference (`wire::read_frame`,
    /// `.lock`, `helper`).
    pub key: String,
    /// Item-table indices the call may target; empty means unresolved.
    pub targets: Vec<usize>,
}

/// The pass-1 output: item table plus per-item call sites.
#[derive(Debug)]
pub struct CallGraph {
    /// The workspace item table, in (file, line) order.
    pub items: Vec<Item>,
    /// `calls[i]` are the call sites inside `items[i]`, in line order.
    pub calls: Vec<Vec<CallSite>>,
    /// Item indices by bare name.
    by_name: BTreeMap<String, Vec<usize>>,
    /// Item indices by `Type::name`, for impl methods.
    by_qual: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over prepared files. Deterministic: items are in
    /// (file, line) order and targets are sorted item indices.
    pub fn build(ctxs: &[FileCtx]) -> CallGraph {
        let items = items::collect_items(ctxs);
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut by_qual: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (idx, item) in items.iter().enumerate() {
            by_name.entry(item.name.clone()).or_default().push(idx);
            if item.qual != item.name {
                by_qual.entry(item.qual.clone()).or_default().push(idx);
            }
        }
        let mut graph = CallGraph {
            items,
            calls: Vec::new(),
            by_name,
            by_qual,
        };

        let mut calls = Vec::with_capacity(graph.items.len());
        for (item_idx, item) in graph.items.iter().enumerate() {
            let ctx = &ctxs[item.file];
            let mut sites = Vec::new();
            let (start, end) = item.body;
            for line_idx in start..=end.min(ctx.lines.len() - 1) {
                for call in call_refs(&ctx.lines[line_idx].code) {
                    // The declaration line names the item itself, not a
                    // call (`fn submit(&self, …)`).
                    if line_idx == start && call.name() == item.name {
                        continue;
                    }
                    let mut targets = graph.resolve(&call, item.krate());
                    // An item is never its own callee unless the source
                    // really recurses by bare name; drop self-loops from
                    // method-name over-approximation.
                    if matches!(call, CallRef::Method(_)) {
                        targets.retain(|&t| t != item_idx);
                    }
                    sites.push(CallSite {
                        line_idx,
                        key: call.display(),
                        targets,
                    });
                }
            }
            calls.push(sites);
        }
        graph.calls = calls;
        graph
    }

    /// Item indices named `name`, in table order.
    pub(crate) fn named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The items a callee reference made from `caller_crate` may target,
    /// by the rules in the module docs; empty means unresolved.
    pub(crate) fn resolve(&self, call: &CallRef, caller_crate: &str) -> Vec<usize> {
        let items = &self.items;
        let same_crate = |name: &str| -> Vec<usize> {
            self.named(name)
                .iter()
                .copied()
                .filter(|&i| items[i].krate() == caller_crate)
                .collect()
        };
        match call {
            CallRef::Plain(name) | CallRef::Method(name) => same_crate(name),
            CallRef::Path(prefix, name) => {
                if let Some(hits) = self.by_qual.get(&format!("{prefix}::{name}")) {
                    return hits.clone();
                }
                let by_module: Vec<usize> = self
                    .named(name)
                    .iter()
                    .copied()
                    .filter(|&i| {
                        items[i].module == *prefix
                            || items[i].module.ends_with(&format!("::{prefix}"))
                    })
                    .collect();
                if !by_module.is_empty() {
                    return by_module;
                }
                if matches!(prefix.as_str(), "Self" | "self" | "crate" | "super") {
                    return same_crate(name);
                }
                Vec::new()
            }
        }
    }

    /// Total `(resolved, unresolved)` call-site counts, for fixture
    /// tests and the summary line.
    pub fn edge_counts(&self) -> (usize, usize) {
        let mut resolved = 0;
        let mut unresolved = 0;
        for sites in &self.calls {
            for site in sites {
                if site.targets.is_empty() {
                    unresolved += 1;
                } else {
                    resolved += 1;
                }
            }
        }
        (resolved, unresolved)
    }

    /// Item indices matching an entry-point pattern (see
    /// [`Item::matches`]), in table order.
    pub fn matching(&self, pattern: &str) -> Vec<usize> {
        (0..self.items.len())
            .filter(|&i| self.items[i].matches(pattern))
            .collect()
    }
}

/// A syntactic callee reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallRef {
    /// `name(…)` with no qualifier.
    Plain(String),
    /// `recv.name(…)` — method syntax, receiver type unknown.
    Method(String),
    /// `Prefix::name(…)` — only the last qualifying segment is kept.
    Path(String, String),
}

impl CallRef {
    /// The referenced function's bare name.
    pub(crate) fn name(&self) -> &str {
        match self {
            CallRef::Plain(n) | CallRef::Method(n) | CallRef::Path(_, n) => n,
        }
    }

    fn display(&self) -> String {
        match self {
            CallRef::Plain(n) => n.clone(),
            CallRef::Method(n) => format!(".{n}"),
            CallRef::Path(p, n) => format!("{p}::{n}"),
        }
    }
}

/// Words that look like `word(` but are control flow, not calls.
const NON_CALL_WORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "let", "else", "move", "in", "fn", "unsafe",
    "as", "break", "continue", "where", "yield", "dyn", "impl", "ref", "mut", "pub",
];

/// Extract callee references from one lexed code line. Macro
/// invocations (`name!(…)`) never match because the `!` sits between
/// the identifier and the parenthesis; turbofish calls
/// (`collect::<_>()`) are likewise skipped — both forms only ever name
/// non-workspace code in this tree.
pub fn call_refs(code: &str) -> Vec<CallRef> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !is_ident_start(b[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        if i >= b.len() || b[i] != b'(' {
            continue;
        }
        let name = &code[start..i];
        if NON_CALL_WORDS.contains(&name) {
            continue;
        }
        // Numbers can't start identifiers; is_ident_start guarantees it.
        if start > 0 && b[start - 1] == b'.' {
            out.push(CallRef::Method(name.to_string()));
        } else if start >= 2 && &b[start - 2..start] == b"::" {
            let seg_end = start - 2;
            let mut seg_start = seg_end;
            while seg_start > 0 && is_ident_byte(b[seg_start - 1]) {
                seg_start -= 1;
            }
            if seg_start < seg_end {
                out.push(CallRef::Path(
                    code[seg_start..seg_end].to_string(),
                    name.to_string(),
                ));
            } else {
                // `<T as Trait>::call(…)` or `::std::…` — qualifier is
                // not a plain segment; treat as unresolved by name.
                out.push(CallRef::Path("<qualified>".to_string(), name.to_string()));
            }
        } else {
            out.push(CallRef::Plain(name.to_string()));
        }
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(code: &str) -> Vec<String> {
        call_refs(code).iter().map(|c| c.display()).collect()
    }

    #[test]
    fn call_forms_are_classified() {
        assert_eq!(
            refs("let x = helper(self.state.lock(), wire::read_frame(buf));"),
            vec!["helper", ".lock", "wire::read_frame"]
        );
        assert_eq!(refs("Server::submit(input)"), vec!["Server::submit"]);
    }

    #[test]
    fn macros_keywords_and_turbofish_are_not_calls() {
        assert!(refs("format!(\"{}\", x)").is_empty());
        assert!(refs("if (a) { return (b); }").is_empty());
        assert!(refs("xs.iter().collect::<Vec<_>>()")
            .iter()
            .all(|r| r == ".iter"));
        assert_eq!(refs("while running(x) {}"), vec!["running"]);
    }

    #[test]
    fn graph_resolves_by_name_qual_and_module() {
        let files = [
            (
                "crates/a/src/one.rs".to_string(),
                "pub fn shared() {}\nimpl Gadget {\n    fn spin(&self) {}\n}\npub fn caller() {\n    shared();\n    two::shared();\n    Widget::paint();\n    g.spin();\n    w.paint();\n    missing();\n}\n"
                    .to_string(),
            ),
            (
                "crates/b/src/two.rs".to_string(),
                "pub fn shared() {}\nimpl Widget {\n    pub fn paint(&self) {}\n}\n".to_string(),
            ),
        ];
        let ctxs: Vec<FileCtx> = files.iter().map(|(p, s)| FileCtx::build(p, s)).collect();
        let graph = CallGraph::build(&ctxs);
        let caller = graph.items.iter().position(|i| i.name == "caller").unwrap();
        let sites = &graph.calls[caller];
        // Bare `shared()` resolves only inside the caller's crate, even
        // though crate b also defines one.
        assert_eq!(sites[0].targets.len(), 1);
        assert_eq!(graph.items[sites[0].targets[0]].module, "a::one");
        // `two::shared()` narrows by module and crosses crates.
        assert_eq!(sites[1].targets.len(), 1);
        assert_eq!(graph.items[sites[1].targets[0]].module, "b::two");
        // `Widget::paint()` resolves by qualified name across crates.
        assert_eq!(sites[2].targets.len(), 1);
        // `g.spin()` — method dispatch resolves within the crate.
        assert_eq!(sites[3].targets.len(), 1);
        assert_eq!(graph.items[sites[3].targets[0]].qual, "Gadget::spin");
        // `w.paint()` — cross-crate method dispatch is an explicit
        // unresolved edge (see the module docs), as is `missing()`.
        assert!(sites[4].targets.is_empty());
        assert!(sites[5].targets.is_empty());
        assert_eq!(graph.edge_counts(), (4, 2));
    }
}
