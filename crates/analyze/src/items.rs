//! Pass 1 of the interprocedural analyzer: per-file prepared views and
//! the workspace item table.
//!
//! [`FileCtx`] bundles everything a rule needs to look at one file —
//! the raw source lines, the lexed [`Line`] stream (literal contents
//! blanked, comments separated), and the file's inline waivers — so the
//! per-line rules and the call-graph rules consume one prepared view
//! instead of each re-deriving it.
//!
//! [`collect_items`] extracts the *item table*: every bodied, non-test
//! `fn` (free functions and impl methods) with its module path (derived
//! from the file path), its qualified name (`Type::name` inside an
//! `impl` block), and its body's line range. The call graph
//! ([`crate::graph`]) is built over this table.

use crate::config::Severity;
use crate::lexer::{self, Line};
use crate::rules::{Finding, RULES};
use std::collections::{BTreeMap, BTreeSet};

/// One file, prepared for analysis.
pub struct FileCtx {
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// Raw source lines (string literal contents intact — some rules
    /// need the literals the lexer blanks).
    pub raw: Vec<String>,
    /// Lexed view: code with literals blanked, comments separated.
    pub lines: Vec<Line>,
    /// Inline `nsai-lint:` waivers found in the file.
    pub waivers: Waivers,
    /// `crate::module` path derived from `path`.
    pub module: String,
}

impl std::fmt::Debug for FileCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileCtx")
            .field("path", &self.path)
            .field("module", &self.module)
            .field("lines", &self.lines.len())
            .finish()
    }
}

impl FileCtx {
    /// Lex `source` and collect its waivers.
    pub fn build(path: &str, source: &str) -> FileCtx {
        let lines = lexer::scan(source);
        let waivers = Waivers::collect(path, &lines);
        FileCtx {
            path: path.to_string(),
            raw: source.lines().map(str::to_string).collect(),
            lines,
            waivers,
            module: module_path(path),
        }
    }
}

/// Derive a `crate::module` path from a workspace-relative file path:
/// `crates/serve/src/server.rs` → `serve::server`,
/// `crates/bench/src/bin/perf.rs` → `bench::perf`,
/// `crates/core/src/lib.rs` → `core`. Lock identities and entry-point
/// patterns are expressed against this naming.
pub fn module_path(path: &str) -> String {
    let stripped = path.strip_suffix(".rs").unwrap_or(path);
    let mut parts: Vec<&str> = stripped
        .split('/')
        .filter(|p| !p.is_empty() && *p != "crates" && *p != "src" && *p != "bin")
        .collect();
    if matches!(parts.last(), Some(&"lib") | Some(&"main") | Some(&"mod")) {
        parts.pop();
    }
    parts.join("::")
}

/// One function or method in the workspace.
#[derive(Debug, Clone)]
pub struct Item {
    /// Index of the defining file in the `FileCtx` slice.
    pub file: usize,
    /// 0-based line of the `fn` keyword.
    pub decl_idx: usize,
    /// Bare function name.
    pub name: String,
    /// `Type::name` when declared inside `impl Type` (or
    /// `impl Trait for Type`); equal to `name` for free functions.
    pub qual: String,
    /// The defining file's module path.
    pub module: String,
    /// Inclusive 0-based line range covering the declaration and body.
    pub body: (usize, usize),
    /// Declared plain `pub` (not `pub(crate)` or private).
    pub public: bool,
    /// Declared inside an `impl Trait for Type` block.
    pub trait_impl: bool,
}

impl Item {
    /// Does this item match an entry-point / allowlist pattern?
    ///
    /// - `name` alone matches any item with that bare name,
    /// - `Type::name` matches the qualified name,
    /// - `module::name` (any suffix of the module path) matches a
    ///   function by defining module, e.g. `conn::reader_loop`.
    pub fn matches(&self, pattern: &str) -> bool {
        if !pattern.contains("::") {
            return self.name == pattern;
        }
        if self.qual == pattern {
            return true;
        }
        let Some((prefix, name)) = pattern.rsplit_once("::") else {
            return false;
        };
        self.name == name
            && (self.module == prefix || self.module.ends_with(&format!("::{prefix}")))
    }

    /// First segment of the module path — the defining crate directory
    /// (`serve::server` → `serve`). Used to scope bare-name call
    /// resolution to the caller's crate.
    pub fn krate(&self) -> &str {
        self.module.split("::").next().unwrap_or(&self.module)
    }
}

/// Extract the item table from the prepared files, in deterministic
/// (file, line) order. Items inside `#[cfg(test)]` regions and bodyless
/// trait signatures are excluded.
pub fn collect_items(ctxs: &[FileCtx]) -> Vec<Item> {
    let mut items = Vec::new();
    for (file_idx, ctx) in ctxs.iter().enumerate() {
        // Stack of enclosing `impl` blocks: (close depth, type name,
        // trait impl?).
        let mut impls: Vec<(usize, String, bool)> = Vec::new();
        for idx in 0..ctx.lines.len() {
            let line = &ctx.lines[idx];
            while let Some(&(close, ..)) = impls.last() {
                if line.depth_start <= close {
                    impls.pop();
                } else {
                    break;
                }
            }
            if let Some((ty, of_trait)) = impl_header(ctx, idx) {
                // A single-line `impl … {}` opens and closes immediately;
                // only push blocks that stay open past this line.
                if line.depth_end > line.depth_start {
                    impls.push((line.depth_start, ty, of_trait));
                }
                continue;
            }
            if line.in_test {
                continue;
            }
            let Some((name, public)) = fn_decl(&line.code) else {
                continue;
            };
            let Some(body) = body_range(&ctx.lines, idx) else {
                continue; // bodyless trait signature
            };
            let (qual, trait_impl) = match impls.last() {
                Some((_, ty, of_trait)) => (format!("{ty}::{name}"), *of_trait),
                None => (name.clone(), false),
            };
            items.push(Item {
                file: file_idx,
                decl_idx: idx,
                name,
                qual,
                module: ctx.module.clone(),
                body,
                public,
                trait_impl,
            });
        }
    }
    items
}

/// If line `idx` starts an `impl` block, return the implemented type's
/// last path segment (`impl fmt::Display for ServeError` → `ServeError`)
/// and whether it implements a trait. Headers may span a few lines
/// before their `{`.
fn impl_header(ctx: &FileCtx, idx: usize) -> Option<(String, bool)> {
    let code = &ctx.lines[idx].code;
    let at = lexer::find_word(code, "impl")?;
    // Only qualifiers may precede `impl` on the header line (this
    // rejects `-> impl Iterator` return types and generic bounds).
    if code[..at]
        .split_whitespace()
        .any(|w| !matches!(w, "unsafe"))
    {
        return None;
    }
    // Join code until the block opens (bounded — headers are short).
    let mut header = String::new();
    for line in ctx.lines.iter().skip(idx).take(8) {
        header.push_str(&line.code);
        header.push(' ');
        if line.code.contains('{') {
            break;
        }
    }
    let after = &header[header.find("impl")? + 4..];
    parse_impl_type(after)
}

/// Parse the implemented type's name out of an `impl` header tail, and
/// whether a trait is implemented:
/// `<T: ?Sized> Deref for MutexGuard<'_, T> {` → `(MutexGuard, true)`.
fn parse_impl_type(text: &str) -> Option<(String, bool)> {
    let mut rest = text.trim_start();
    if rest.starts_with('<') {
        let mut depth = 0i32;
        let mut end = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[end.min(rest.len())..].trim_start();
    }
    let for_at = lexer::find_word(rest, "for");
    let rest = match for_at {
        Some(at) => rest[at + 3..].trim_start(),
        None => rest,
    };
    let head: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
        .collect();
    let name = head
        .rsplit("::")
        .next()
        .unwrap_or("")
        .trim_end_matches(':')
        .to_string();
    (!name.is_empty()).then_some((name, for_at.is_some()))
}

/// Extract `(name, is_pub)` from a `fn` declaration line. `pub(crate)`
/// and private fns report `is_pub = false`; they are tracked only so
/// delegation through them counts as coverage.
pub fn fn_decl(code: &str) -> Option<(String, bool)> {
    let fn_at = lexer::find_word(code, "fn")?;
    let before = &code[..fn_at];
    // Only qualifiers may precede `fn` on a declaration line (this also
    // rejects mentions like `Fn(usize)` and higher-order params).
    let mut is_pub = false;
    for word in before.split_whitespace() {
        match word {
            "pub" => is_pub = true,
            w if w.starts_with("pub(") => is_pub = false, // crate-visible only
            "const" | "unsafe" | "extern" | "async" | "\"C\"" => {}
            _ => return None,
        }
    }
    let after = code[fn_at + 2..].trim_start();
    let name: String = after
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some((name, is_pub))
}

/// The inclusive line range of the fn declared at `decl_idx`, covering
/// the (possibly multi-line) signature and the body — including
/// single-line bodies, which [`body_range`] recognizes and
/// `rules::fn_body` does not. Returns `None` for bodyless trait
/// signatures (a `;` at signature depth before any `{`; semicolons
/// inside `[u8; 4]`-style brackets are ignored).
pub fn body_range(lines: &[Line], decl_idx: usize) -> Option<(usize, usize)> {
    let sig_depth = lines[decl_idx].depth_start;
    let mut open_line = None;
    'scan: for (j, line) in lines.iter().enumerate().skip(decl_idx) {
        let mut brackets = 0i32;
        for c in line.code.chars() {
            match c {
                '[' => brackets += 1,
                ']' => brackets -= 1,
                '{' => {
                    open_line = Some(j);
                    break 'scan;
                }
                ';' if brackets == 0 => return None,
                _ => {}
            }
        }
    }
    let open = open_line?;
    let mut end = open;
    while end < lines.len() {
        if lines[end].depth_end <= sig_depth {
            break;
        }
        end += 1;
    }
    Some((decl_idx, end.min(lines.len() - 1)))
}

/// Inline waivers for one file: rule names keyed by the (0-based) line
/// they cover. A waiver covers its own line and, when it sits on a
/// comment-only line, the next line that has code on it.
#[derive(Debug)]
pub struct Waivers {
    by_line: BTreeMap<usize, BTreeSet<String>>,
    /// Every well-formed waiver, in line order.
    pub(crate) directives: Vec<Waiver>,
    /// Malformed waiver directives, reported as findings.
    pub malformed: Vec<Finding>,
}

/// One well-formed `nsai-lint: allow(...)` comment.
#[derive(Debug)]
pub(crate) struct Waiver {
    /// 0-based line of the comment.
    pub(crate) line: usize,
    /// The rules it names.
    pub(crate) rules: Vec<String>,
    /// 0-based lines it covers: its own, plus the next code line when
    /// the comment stands alone.
    pub(crate) targets: Vec<usize>,
}

impl Waivers {
    /// Scan a file's comment stream for `nsai-lint:` directives.
    pub fn collect(path: &str, lines: &[Line]) -> Waivers {
        let mut by_line: BTreeMap<usize, BTreeSet<String>> = BTreeMap::new();
        let mut directives = Vec::new();
        let mut malformed = Vec::new();

        for (idx, line) in lines.iter().enumerate() {
            // Doc comments (`///`, `//!`, `/**`) never carry waivers —
            // they are where the waiver syntax gets *described*.
            let trimmed = line.comment.trim_start();
            if trimmed.starts_with('/') || trimmed.starts_with('!') || trimmed.starts_with('*') {
                continue;
            }
            let Some(at) = line.comment.find("nsai-lint:") else {
                continue;
            };
            let directive = line.comment[at + "nsai-lint:".len()..].trim();
            match parse_waiver(directive) {
                Ok(rules) => {
                    let mut targets = vec![idx];
                    if line.code.trim().is_empty() {
                        // Comment-only line: also cover the next code line.
                        if let Some(next) = lines[idx + 1..]
                            .iter()
                            .position(|l| !l.code.trim().is_empty())
                        {
                            targets.push(idx + 1 + next);
                        }
                    }
                    for &t in &targets {
                        by_line.entry(t).or_default().extend(rules.iter().cloned());
                    }
                    directives.push(Waiver {
                        line: idx,
                        rules,
                        targets,
                    });
                }
                Err(message) => malformed.push(Finding {
                    path: path.to_string(),
                    line: idx + 1,
                    rule: "waiver-syntax".into(),
                    severity: Severity::Deny,
                    message,
                    waived: false,
                }),
            }
        }
        Waivers {
            by_line,
            directives,
            malformed,
        }
    }

    /// Is `rule` waived on 0-based line `idx`?
    pub fn waived(&self, idx: usize, rule: &str) -> bool {
        self.by_line
            .get(&idx)
            .is_some_and(|rules| rules.contains(rule))
    }
}

/// Parse `allow(rule[, rule…]): justification`. The justification is
/// mandatory — a waiver that does not say *why* is a finding.
fn parse_waiver(directive: &str) -> Result<Vec<String>, String> {
    let inner = directive
        .strip_prefix("allow(")
        .ok_or_else(|| format!("expected `allow(<rule>): <justification>`, got {directive:?}"))?;
    let close = inner
        .find(')')
        .ok_or_else(|| "unterminated `allow(` in waiver".to_string())?;
    let rules: Vec<String> = inner[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        return Err("waiver names no rule".to_string());
    }
    for rule in &rules {
        if !RULES.contains(&rule.as_str()) {
            return Err(format!("waiver names unknown rule {rule:?}"));
        }
    }
    let rest = inner[close + 1..].trim();
    let justification = rest.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err(format!(
            "waiver for {} is missing its justification (`allow(rule): why`)",
            rules.join(", ")
        ));
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths_from_workspace_layout() {
        assert_eq!(module_path("crates/serve/src/server.rs"), "serve::server");
        assert_eq!(module_path("crates/core/src/lib.rs"), "core");
        assert_eq!(module_path("crates/bench/src/bin/perf.rs"), "bench::perf");
        assert_eq!(
            module_path("crates/tensor/src/ops/matmul.rs"),
            "tensor::ops::matmul"
        );
        assert_eq!(module_path("a.rs"), "a");
    }

    #[test]
    fn items_carry_impl_qualification_and_bodies() {
        let src = "\
pub fn free() { helper(); }
impl Server {
    pub fn submit(&self) -> usize {
        self.inner()
    }
    fn inner(&self) -> usize { 1 }
}
impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }
}
trait Workload {
    fn run(&self);
}
";
        let ctx = FileCtx::build("crates/serve/src/server.rs", src);
        let items = collect_items(&[ctx]);
        let quals: Vec<&str> = items.iter().map(|i| i.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec!["free", "Server::submit", "Server::inner", "ServeError::fmt"],
            "{items:#?}"
        );
        // Bodyless trait signature excluded; single-line bodies included.
        assert_eq!(items[2].body, (5, 5));
        // Multi-line body spans to its closing brace.
        assert_eq!(items[1].body, (2, 4));
    }

    #[test]
    fn entry_patterns_match_name_qual_and_module() {
        let ctx = FileCtx::build(
            "crates/gateway/src/conn.rs",
            "fn reader_loop() {}\nimpl Gateway {\n    fn shutdown(&self) {}\n}\n",
        );
        let items = collect_items(&[ctx]);
        assert!(items[0].matches("reader_loop"));
        assert!(items[0].matches("conn::reader_loop"));
        assert!(items[0].matches("gateway::conn::reader_loop"));
        assert!(!items[0].matches("server::reader_loop"));
        assert!(items[1].matches("Gateway::shutdown"));
        assert!(!items[1].matches("Server::shutdown"));
    }

    #[test]
    fn return_position_impl_is_not_an_impl_block() {
        let src =
            "fn make() -> impl Iterator<Item = u32> {\n    std::iter::empty()\n}\nfn after() {}\n";
        let ctx = FileCtx::build("a.rs", src);
        let items = collect_items(&[ctx]);
        assert_eq!(items[1].qual, "after"); // not `Iterator::after`
    }
}
