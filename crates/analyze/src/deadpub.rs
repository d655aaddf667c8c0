//! `dead-pub`: public functions that nothing uses.
//!
//! A finding is a plain `pub fn` under the rule's `paths` — a free fn
//! or an inherent method from the item table; never a `pub(crate)` fn,
//! a trait-impl method or `main` — that nothing names outside its own
//! body and its own file's `#[cfg(test)]` module. `rustc`'s `dead_code`
//! cannot see this: a library exports every `pub` item it can reach.
//!
//! Names are read from every file the walker returns: the scanned set,
//! the exempt trees the other rules skip (`tests/`, `examples/`,
//! `benches/`), and the fenced code of doc comments, which runs as
//! doctests. A mention credits
//! - `Qual::f(…)` and a bare path `Qual::f` (`.map(Type::f)`, `use
//!   m::f;`): the items the call graph resolves it to. When it resolves
//!   to none, a lowercase `module::f` credits every fn named `f` (crate
//!   names and re-exports hide the defining module), and a `Type::f`
//!   credits nothing (the type is foreign: `Vec::new`);
//! - `f(…)` and `recv.f(…)`: every fn named `f`. The graph resolves
//!   these only inside the caller's crate, and imports and cross-crate
//!   dispatch reach beyond it;
//! - each name in a private `use` list (`use m::{f, g};`): every fn of
//!   that name. A `pub use` re-export is not a use.
//!
//! So the rule may miss dead code, but it never flags a function that
//! something names. Deliberate surface takes the usual inline waiver,
//! on the `pub fn` line or the comment line directly above it.

use crate::config::{Config, Severity};
use crate::graph::{CallGraph, CallRef};
use crate::items::FileCtx;
use crate::lexer;
use crate::rules::{applies, push_finding, Finding};

/// Report every candidate `pub fn` nothing names. `ctxs` are the
/// scanned files the graph was built over; `callers` are read for
/// mentions only.
pub(crate) fn check(
    graph: &CallGraph,
    ctxs: &[FileCtx],
    callers: &[FileCtx],
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    let rule = config.rule("dead-pub");
    if rule.severity == Severity::Allow || rule.paths.is_empty() {
        return;
    }
    let mut named = vec![false; graph.items.len()];
    let files = ctxs
        .iter()
        .enumerate()
        .map(|(idx, ctx)| (Some(idx), ctx))
        .chain(callers.iter().map(|ctx| (None, ctx)));
    for (file, ctx) in files {
        let krate = ctx.module.split("::").next().unwrap_or("");
        for (line_idx, mention) in file_mentions(ctx) {
            let targets = match &mention {
                // An unresolved `Type::f` is a foreign type's fn; an
                // unresolved `module::f` may still reach a workspace fn
                // through a crate name or a re-export.
                CallRef::Path(prefix, name) => {
                    let hits = graph.resolve(&mention, krate);
                    if hits.is_empty() && prefix.starts_with(|c: char| c.is_ascii_lowercase()) {
                        graph.named(name).to_vec()
                    } else {
                        hits
                    }
                }
                other => graph.named(other.name()).to_vec(),
            };
            for target in targets {
                let item = &graph.items[target];
                let own = file == Some(item.file)
                    && (ctx.lines[line_idx].in_test
                        || (item.body.0..=item.body.1).contains(&line_idx));
                if !own {
                    named[target] = true;
                }
            }
        }
    }

    for (idx, item) in graph.items.iter().enumerate() {
        let ctx = &ctxs[item.file];
        if named[idx]
            || !item.public
            || item.trait_impl
            || item.name == "main"
            || !applies(&rule, &ctx.path)
        {
            continue;
        }
        push_finding(
            findings,
            &ctx.path,
            item.decl_idx,
            "dead-pub",
            rule.severity,
            format!(
                "`pub fn {}` has no caller outside its own file's tests — \
                 delete it, narrow it, move it under `#[cfg(test)]`, or waive \
                 it with the reason it is deliberate surface",
                item.qual
            ),
            ctx.waivers.waived(item.decl_idx, "dead-pub"),
        );
    }
}

/// Every fn-name mention in one file, code and doctests, with the
/// 0-based source line it sits on.
fn file_mentions(ctx: &FileCtx) -> Vec<(usize, CallRef)> {
    let mut out = Vec::new();
    // Inside a `use` statement: `Some(true)` imports, `Some(false)`
    // re-exports (`pub use`, `pub(crate) use`), which use nothing.
    let mut in_use: Option<bool> = None;
    for (idx, line) in ctx.lines.iter().enumerate() {
        let code = line.code.trim_start();
        if in_use.is_none() {
            if code.starts_with("use ") {
                in_use = Some(true);
            } else if ["pub use ", "pub(crate) use ", "pub(super) use "]
                .iter()
                .any(|vis| code.starts_with(vis))
            {
                in_use = Some(false);
            }
        }
        match in_use {
            Some(imports) => {
                if imports {
                    out.extend(words(&line.code).map(|w| (idx, CallRef::Plain(w.to_string()))));
                }
                if line.code.contains(';') {
                    in_use = None;
                }
            }
            None => out.extend(mentions(&line.code).into_iter().map(|m| (idx, m))),
        }
    }
    for (idx, code) in doc_code(ctx) {
        out.extend(mentions(&code).into_iter().map(|m| (idx, m)));
    }
    out
}

/// The fenced code blocks of a file's `///` and `//!` comments, lexed,
/// each line keyed by its 0-based source line. Rustdoc's hidden-line
/// marker (`# `) is stripped.
fn doc_code(ctx: &FileCtx) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut block: Option<Vec<(usize, String)>> = None;
    for (idx, line) in ctx.lines.iter().enumerate() {
        let doc = line.code.trim().is_empty()
            && (line.comment.starts_with('/') || line.comment.starts_with('!'));
        if !doc {
            block = None; // a fence never outlives its comment block
            continue;
        }
        let text = &line.comment[1..];
        let text = text.strip_prefix(' ').unwrap_or(text);
        if text.trim_start().starts_with("```") {
            match block.take() {
                Some(lines) => {
                    let source: Vec<&str> = lines.iter().map(|(_, t)| t.as_str()).collect();
                    let lexed = lexer::scan(&source.join("\n"));
                    out.extend(lines.iter().zip(lexed).map(|((i, _), l)| (*i, l.code)));
                }
                None => block = Some(Vec::new()),
            }
            continue;
        }
        if let Some(lines) = block.as_mut() {
            let text = if text.trim() == "#" {
                ""
            } else {
                text.strip_prefix("# ").unwrap_or(text)
            };
            lines.push((idx, text.to_string()));
        }
    }
    out
}

/// The identifiers on a lexed code line.
fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_alphabetic() || c == '_'))
}

/// Does code ending in `before` declare the fn named next (`… fn`)?
fn declares(before: &str) -> bool {
    before
        .strip_suffix("fn")
        .is_some_and(|b| !b.ends_with(|c: char| c.is_alphanumeric() || c == '_'))
}

/// Fn-name mentions on one lexed code line: `Qual::f` with or without
/// a call (as [`CallRef::Path`]), and called plain and method names
/// (`f(…)`, `recv.f(…)`, turbofish included) as [`CallRef::Plain`] —
/// both credit by name. Declarations (`fn f`), macros (`m!`) and inner
/// path segments (`a::b::c` names only `c`) are not mentions.
fn mentions(code: &str) -> Vec<CallRef> {
    let b = code.as_bytes();
    let ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !(b[i].is_ascii_alphabetic() || b[i] == b'_') || (i > 0 && ident(b[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && ident(b[i]) {
            i += 1;
        }
        let name = &code[start..i];
        let rest = &code[i..];
        let called = rest.starts_with('(') || rest.starts_with("::<");
        if rest.starts_with('!') || (rest.starts_with("::") && !called) {
            continue;
        }
        let before = code[..start].trim_end();
        if let Some(qual_end) = before.strip_suffix("::") {
            let qual = qual_end
                .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                .next()
                .filter(|q| !q.is_empty())
                .unwrap_or("<qualified>");
            out.push(CallRef::Path(qual.to_string(), name.to_string()));
        } else if called && !declares(before) {
            out.push(CallRef::Plain(name.to_string()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shown(code: &str) -> Vec<String> {
        mentions(code)
            .iter()
            .map(|m| match m {
                CallRef::Path(p, n) => format!("{p}::{n}"),
                other => other.name().to_string(),
            })
            .collect()
    }

    #[test]
    fn mentions_cover_calls_paths_and_turbofish() {
        assert_eq!(
            shown("let x = helper(a.run(), wire::read_frame(buf));"),
            vec!["helper", "run", "wire::read_frame"]
        );
        assert_eq!(
            shown("xs.iter().map(Type::f)"),
            vec!["iter", "map", "Type::f"]
        );
        assert_eq!(
            shown("nsai_core::profile::phase_scope"),
            vec!["profile::phase_scope"]
        );
        assert_eq!(shown("parse::<u32>(s); v.get::<T>()"), vec!["parse", "get"]);
        assert_eq!(shown("<T as Tr>::make()"), vec!["<qualified>::make"]);
        assert_eq!(shown("Vec::<u8>::new()"), vec!["Vec", "<qualified>::new"]);
    }

    #[test]
    fn declarations_macros_and_fields_are_not_mentions() {
        assert!(shown("pub fn helper(x: u32) -> u32 {").is_empty());
        assert!(shown("println!(\"\"); s.field; let v = x;").is_empty());
    }

    #[test]
    fn doc_fences_are_lexed_and_hidden_lines_unmarked() {
        let src = "/// Text naming prose_only().\n///\n/// ```\n/// # let s = \"fake()\";\n/// real(s);\n/// ```\npub fn f() {}\n";
        let ctx = FileCtx::build("a.rs", src);
        let code = doc_code(&ctx);
        assert_eq!(code.len(), 2, "{code:?}");
        assert_eq!(code[1].0, 4);
        assert!(code.iter().all(|(_, c)| !c.contains("fake")), "{code:?}");
        assert_eq!(shown(&code[1].1), vec!["real"]);
    }
}
