//! The rule families and the lexical taint engine.
//!
//! Three groups of rules run over each file, gated by the file's scope
//! annotations and the secret-function registry:
//!
//! * **Untrusted-input rules** (files annotated `lint: untrusted-input`):
//!   [`NO_UNWRAP`], [`NO_PANIC`], [`SLICE_INDEX`], [`TRUNCATING_CAST`],
//!   [`ALLOC_BEFORE_CAP`]. These are the panic-freedom and allocation-cap
//!   guarantees for parsers that read attacker-controlled bytes.
//! * **Constant-time rules** (functions listed in the registry): [`SECRET_BRANCH`],
//!   [`SECRET_DIVMOD`], [`SECRET_INDEX`]. A forward lexical taint pass seeds the
//!   registered secret identifiers and propagates through `let`-bindings, plain
//!   assignments, and `for`-patterns; findings fire where control flow, variable-time
//!   arithmetic, or table addressing depends on a tainted identifier.
//! * **Hygiene rules**: [`THREAD_LOCAL`] (planning-scope files), [`CHUNK_SEED`]
//!   (chunk seeds may only be derived inside annotated authority files),
//!   [`RESEED_USES_SEED`] (`reseeded` impls must consume their seed),
//!   [`MISSING_FORBID_UNSAFE`] (crate roots must carry `#![forbid(unsafe_code)]`),
//!   and [`ALLOW_MISSING_REASON`] (an allow-comment without a reason is inert).
//!
//! Suppression is per-line: `// lint: allow(rule-a, rule-b) — reason` on the
//! finding's line or the line directly above it. The reason is mandatory.

use std::collections::{HashMap, HashSet};

use crate::lexer::{Comment, Token, TokenKind};
use crate::registry::Registry;
use crate::scope::Scopes;

/// Forbid `.unwrap()` / `.expect(…)` in untrusted-input code.
pub const NO_UNWRAP: &str = "no-unwrap";
/// Forbid `panic!` / `unreachable!` / `todo!` / `unimplemented!` in untrusted-input code.
pub const NO_PANIC: &str = "no-panic";
/// Forbid direct slice/array indexing (`x[i]`, `&x[a..b]`) in untrusted-input code.
pub const SLICE_INDEX: &str = "slice-index";
/// Forbid truncating `as` casts (to u8/u16/u32/usize and signed kin) in untrusted-input code.
pub const TRUNCATING_CAST: &str = "truncating-cast";
/// Length-prefixed reads must cap a wire-derived size before allocating with it.
pub const ALLOC_BEFORE_CAP: &str = "alloc-before-cap";
/// Secret-dependent `if`/`while`/`match`/`?` in a registered constant-time function.
pub const SECRET_BRANCH: &str = "secret-branch";
/// `%` / `/` (or division-style method calls) on secret operands.
pub const SECRET_DIVMOD: &str = "secret-divmod";
/// Table loads addressed by a secret-derived index.
pub const SECRET_INDEX: &str = "secret-index";
/// No new `thread_local!` caches in planning-scope code.
pub const THREAD_LOCAL: &str = "thread-local";
/// `chunk_seed(…)` may only be called from annotated seed-authority files.
pub const CHUNK_SEED: &str = "chunk-seed-discipline";
/// A `reseeded` implementation must consume its seed parameter.
pub const RESEED_USES_SEED: &str = "reseed-uses-seed";
/// Crate roots must carry `#![forbid(unsafe_code)]`.
pub const MISSING_FORBID_UNSAFE: &str = "missing-forbid-unsafe";
/// `lint: allow(…)` without a written reason is inactive and flagged.
pub const ALLOW_MISSING_REASON: &str = "allow-missing-reason";

/// Every rule identifier, for docs and CLI listings.
pub const ALL_RULES: &[&str] = &[
    NO_UNWRAP,
    NO_PANIC,
    SLICE_INDEX,
    TRUNCATING_CAST,
    ALLOC_BEFORE_CAP,
    SECRET_BRANCH,
    SECRET_DIVMOD,
    SECRET_INDEX,
    THREAD_LOCAL,
    CHUNK_SEED,
    RESEED_USES_SEED,
    MISSING_FORBID_UNSAFE,
    ALLOW_MISSING_REASON,
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (one of the constants in this module).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function name, or `""` at module level.
    pub function: String,
    /// Human-readable explanation.
    pub message: String,
    /// Trimmed source line (≤120 chars), used for baseline keying.
    pub snippet: String,
}

/// Scope annotations discovered in a file's comments.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileFlags {
    /// `lint: untrusted-input` — panic-freedom rules apply.
    pub untrusted: bool,
    /// `lint: planning` — the thread-local rule applies (set on the file or
    /// inherited from the crate root by the analyzer).
    pub planning: bool,
    /// `lint: chunk-seed-authority` — this file may call `chunk_seed`.
    pub seed_authority: bool,
    /// This file is a crate root (`lib.rs`), so `missing-forbid-unsafe` applies.
    pub crate_root: bool,
}

/// Read a file's own scope annotations out of its comments. Annotations must
/// start the comment (`//! lint: untrusted-input — …`); mentions elsewhere in
/// prose or doc text are inert, so documentation *about* the lint never
/// re-scopes the file containing it.
pub fn scope_flags(comments: &[Comment]) -> FileFlags {
    let mut flags = FileFlags::default();
    for c in comments {
        let t = c.text.trim_start();
        if t.starts_with("lint: untrusted-input") {
            flags.untrusted = true;
        }
        if t.starts_with("lint: planning") {
            flags.planning = true;
        }
        if t.starts_with("lint: chunk-seed-authority") {
            flags.seed_authority = true;
        }
    }
    flags
}

/// Result of checking one file.
#[derive(Debug, Default)]
pub struct CheckResult {
    /// Findings not suppressed by an allow-comment.
    pub findings: Vec<Finding>,
    /// Count of findings suppressed by a reasoned allow-comment.
    pub allowed: usize,
}

const RUST_KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "try", "type", "union", "unsafe", "use", "where", "while", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// `as`-cast target types that can silently discard bits.
const TRUNCATING_TARGETS: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize"];

/// Method names that perform division/remainder (variable-time on most targets).
const DIVMOD_METHODS: &[&str] = &[
    "rem",
    "div_rem",
    "div_ceil",
    "div_euclid",
    "rem_euclid",
    "checked_div",
    "checked_rem",
    "wrapping_div",
    "wrapping_rem",
    "mod_pow",
    "mod_pow_generic",
    "mul_mod",
];

/// Identifiers whose presence makes an allocation-size expression self-capping.
const SIZE_SAFE_IDENTS: &[&str] =
    &["len", "min", "clamp", "count_u32", "count_u64", "capacity", "remaining"];

/// Identifiers that count as a cap/validation when they share a statement with a
/// size variable earlier in the function.
const GUARD_IDENTS: &[&str] =
    &["min", "clamp", "count_u32", "count_u64", "check_count", "try_from", "len", "take"];

/// Check one file. `path` is the workspace-relative path used in diagnostics and
/// registry lookups; `source` is used for snippets; `flags` carries the file's
/// scope annotations (possibly augmented by the analyzer with crate-level facts).
pub fn check_file(
    path: &str,
    source: &str,
    tokens: &[Token],
    comments: &[Comment],
    scopes: &Scopes,
    registry: &Registry,
    flags: FileFlags,
) -> CheckResult {
    let mut checker = Checker {
        path,
        tokens,
        scopes,
        lines: source.lines().collect(),
        allow: HashMap::new(),
        seen: HashSet::new(),
        out: CheckResult::default(),
    };
    checker.collect_allows(comments);
    if flags.untrusted {
        checker.untrusted_rules();
        checker.alloc_before_cap();
    }
    checker.constant_time_rules(registry);
    checker.hygiene_rules(flags);
    checker.out
}

struct Checker<'a> {
    path: &'a str,
    tokens: &'a [Token],
    scopes: &'a Scopes,
    lines: Vec<&'a str>,
    /// line → rules allowed on that line.
    allow: HashMap<u32, HashSet<String>>,
    /// (rule, line) pairs already reported.
    seen: HashSet<(&'static str, u32)>,
    out: CheckResult,
}

impl Checker<'_> {
    fn collect_allows(&mut self, comments: &[Comment]) {
        let comment_lines: HashSet<u32> = comments.iter().map(|c| c.line).collect();
        for c in comments {
            // Like scope annotations, an allow must start its comment — quoting the
            // syntax in prose or a doc code block must not create a suppression.
            let trimmed = c.text.trim_start();
            if !trimmed.starts_with("lint: allow(") {
                continue;
            }
            let rest = &trimmed["lint: allow(".len()..];
            let Some(close) = rest.find(')') else { continue };
            let rules: Vec<String> = rest[..close]
                .split(',')
                .map(str::trim)
                .filter(|r| !r.is_empty())
                .map(str::to_string)
                .collect();
            let reason = rest[close + 1..]
                .trim_start_matches(|ch: char| {
                    ch.is_whitespace() || matches!(ch, '—' | '–' | '-' | ':' | '.')
                })
                .trim();
            if reason.is_empty() {
                self.report(
                    ALLOW_MISSING_REASON,
                    c.line,
                    String::new(),
                    "allow-comment has no reason; write `// lint: allow(rule) — why it is safe`"
                        .to_string(),
                );
                continue;
            }
            // The allow covers the comment's own lines (it may wrap) and the first
            // non-comment line after it — the statement the comment sits above.
            let mut line = c.line;
            loop {
                self.allow.entry(line).or_default().extend(rules.iter().cloned());
                if !comment_lines.contains(&line) {
                    break;
                }
                line += 1;
            }
        }
    }

    fn snippet(&self, line: u32) -> String {
        let idx = line.saturating_sub(1) as usize;
        let text = self.lines.get(idx).map_or("", |l| l.trim());
        text.chars().take(120).collect()
    }

    fn report(&mut self, rule: &'static str, line: u32, function: String, message: String) {
        if !self.seen.insert((rule, line)) {
            return;
        }
        if self.allow.get(&line).is_some_and(|rules| rules.contains(rule)) {
            self.out.allowed += 1;
            return;
        }
        self.out.findings.push(Finding {
            rule,
            file: self.path.to_string(),
            line,
            function,
            message,
            snippet: self.snippet(line),
        });
    }

    fn report_at(&mut self, rule: &'static str, tok: usize, message: String) {
        let line = self.tokens[tok].line;
        let function = self.scopes.enclosing_name(tok).to_string();
        self.report(rule, line, function, message);
    }

    fn is_keyword(text: &str) -> bool {
        RUST_KEYWORDS.contains(&text)
    }

    /// True when the token before `idx` makes a following `[` an index operation
    /// (an expression just ended) rather than a pattern, type, or literal.
    fn prev_ends_expr(&self, idx: usize) -> bool {
        let Some(prev) = idx.checked_sub(1).and_then(|p| self.tokens.get(p)) else {
            return false;
        };
        match prev.kind {
            TokenKind::Ident => !Self::is_keyword(&prev.text),
            TokenKind::Punct => prev.text == ")" || prev.text == "]",
            _ => false,
        }
    }

    /// Token index of the matching closer for the opener at `open`.
    fn matching(&self, open: usize, open_c: char, close_c: char) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while let Some(t) = self.tokens.get(i) {
            if t.is_punct(open_c) {
                depth += 1;
            } else if t.is_punct(close_c) {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            i += 1;
        }
        self.tokens.len().saturating_sub(1)
    }

    /// `[start, end)` bounds of the statement containing `idx` (delimited by
    /// `;` / `{` / `}` at any nesting — an approximation that is tight enough for
    /// operand windows inside the small registered functions).
    fn stmt_bounds(&self, idx: usize) -> (usize, usize) {
        let is_boundary = |t: &Token| t.is_punct(';') || t.is_punct('{') || t.is_punct('}');
        let mut start = idx;
        while start > 0 && !is_boundary(&self.tokens[start - 1]) {
            start -= 1;
        }
        let mut end = idx;
        while end < self.tokens.len() && !is_boundary(&self.tokens[end]) {
            end += 1;
        }
        (start, end)
    }

    // ── rule family 1: panic-freedom in untrusted-input files ───────────────────

    fn untrusted_rules(&mut self) {
        for i in 0..self.tokens.len() {
            if self.scopes.is_test(i) {
                continue;
            }
            let tok = &self.tokens[i];
            match tok.kind {
                TokenKind::Ident if tok.text == "unwrap" || tok.text == "expect" => {
                    let method_call = i > 0
                        && self.tokens[i - 1].is_punct('.')
                        && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
                    if method_call {
                        self.report_at(
                            NO_UNWRAP,
                            i,
                            format!(
                                "`.{}()` on untrusted input can panic; return a typed error instead",
                                tok.text
                            ),
                        );
                    }
                }
                TokenKind::Ident
                    if PANIC_MACROS.contains(&tok.text.as_str())
                        && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
                {
                    self.report_at(
                        NO_PANIC,
                        i,
                        format!(
                            "`{}!` in an untrusted-input path; return a typed error instead",
                            tok.text
                        ),
                    );
                }
                TokenKind::Ident if tok.text == "as" => {
                    let target = self.tokens.get(i + 1);
                    if let Some(t) = target {
                        if t.kind == TokenKind::Ident
                            && TRUNCATING_TARGETS.contains(&t.text.as_str())
                        {
                            self.report_at(
                                TRUNCATING_CAST,
                                i,
                                format!(
                                    "truncating `as {}` cast on untrusted data; use `try_from` \
                                     or widen the type",
                                    t.text
                                ),
                            );
                        }
                    }
                }
                TokenKind::Punct if tok.text == "[" && self.prev_ends_expr(i) => {
                    self.report_at(
                        SLICE_INDEX,
                        i,
                        "direct indexing can panic on short input; use `get`/`split_first` or \
                         destructure a fixed-size array"
                            .to_string(),
                    );
                }
                _ => {}
            }
        }
    }

    // ── rule family 1b: allocation caps ─────────────────────────────────────────

    fn alloc_before_cap(&mut self) {
        for i in 0..self.tokens.len() {
            if self.scopes.is_test(i) {
                continue;
            }
            let tok = &self.tokens[i];
            // `with_capacity(expr)` / `reserve(expr)` / first arg of `resize(expr, …)`.
            let call_site = tok.kind == TokenKind::Ident
                && matches!(
                    tok.text.as_str(),
                    "with_capacity" | "reserve" | "reserve_exact" | "resize"
                )
                && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('('));
            if call_site {
                let close = self.matching(i + 1, '(', ')');
                let mut end = close;
                if tok.text == "resize" {
                    // Only the first argument is a length.
                    let mut depth = 0usize;
                    for j in i + 1..close {
                        let t = &self.tokens[j];
                        if t.is_punct('(') || t.is_punct('[') {
                            depth += 1;
                        } else if t.is_punct(')') || t.is_punct(']') {
                            depth -= 1;
                        } else if t.is_punct(',') && depth == 1 {
                            end = j;
                            break;
                        }
                    }
                }
                self.check_alloc_size(i, i + 2, end);
            }
            // `vec![elem; size]`.
            if tok.is_ident("vec")
                && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && self.tokens.get(i + 2).is_some_and(|t| t.is_punct('['))
            {
                let close = self.matching(i + 2, '[', ']');
                let mut depth = 0usize;
                for j in i + 2..close {
                    let t = &self.tokens[j];
                    if t.is_punct('[') || t.is_punct('(') {
                        depth += 1;
                    } else if t.is_punct(']') || t.is_punct(')') {
                        depth -= 1;
                    } else if t.is_punct(';') && depth == 1 {
                        self.check_alloc_size(i, j + 1, close);
                        break;
                    }
                }
            }
        }
    }

    /// Inspect the size expression in `tokens[start..end)` for an allocation at
    /// token `site`, and report unless every size identifier is capped.
    fn check_alloc_size(&mut self, site: usize, start: usize, end: usize) {
        let exprs: Vec<&Token> = self.tokens[start.min(end)..end].iter().collect();
        // Self-capping expressions: `.len()`-derived, `min`-clamped, or counts from
        // the checked `count_u32`/`count_u64` readers.
        if exprs
            .iter()
            .any(|t| t.kind == TokenKind::Ident && SIZE_SAFE_IDENTS.contains(&t.text.as_str()))
        {
            return;
        }
        let suspicious: Vec<&str> = exprs
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .filter(|name| {
                !Self::is_keyword(name)
                    && !name
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
            })
            .collect();
        if suspicious.is_empty() {
            return;
        }
        let fn_start = self.scopes.enclosing(site).map_or(0, |f| f.start);
        for name in suspicious {
            let guarded = (fn_start..site).any(|j| {
                let t = &self.tokens[j];
                if !(t.kind == TokenKind::Ident && t.text == name) {
                    return false;
                }
                let (s, e) = self.stmt_bounds(j);
                self.tokens[s..e].iter().any(|g| {
                    g.kind == TokenKind::Ident
                        && g.text != name
                        && (GUARD_IDENTS.contains(&g.text.as_str())
                            || g.text.contains("MAX")
                            || g.text.contains("CAP")
                            || g.text.contains("LIMIT"))
                })
            });
            if !guarded {
                self.report_at(
                    ALLOC_BEFORE_CAP,
                    site,
                    format!(
                        "allocation sized by `{name}` with no visible cap; validate against a \
                         maximum (or the remaining input) before allocating"
                    ),
                );
                return;
            }
        }
    }

    // ── rule family 2: constant-time discipline ─────────────────────────────────

    fn constant_time_rules(&mut self, registry: &Registry) {
        let spans: Vec<(usize, usize, Vec<String>)> = self
            .scopes
            .functions
            .iter()
            .filter_map(|f| {
                registry
                    .lookup(self.path, &f.name)
                    .map(|entry| (f.sig_start, f.end, entry.secrets.clone()))
            })
            .collect();
        for (start, end, secrets) in spans {
            let tainted = self.propagate_taint(start, end, &secrets);
            self.secret_flow_findings(start, end, &tainted);
        }
    }

    /// Forward lexical taint propagation over `tokens[start..=end]`: two passes over
    /// `let` bindings, plain/compound assignments, and `for` patterns.
    fn propagate_taint(&self, start: usize, end: usize, secrets: &[String]) -> HashSet<String> {
        let mut tainted: HashSet<String> = secrets.iter().cloned().collect();
        for _pass in 0..2 {
            let mut i = start;
            while i <= end.min(self.tokens.len().saturating_sub(1)) {
                let tok = &self.tokens[i];
                if tok.is_ident("let") {
                    // Pattern until `=`, value until `;` (or `{` for if/while-let).
                    let in_condition =
                        i > 0 && matches!(self.tokens[i - 1].text.as_str(), "if" | "while");
                    let mut eq = i + 1;
                    while eq <= end && !self.tokens[eq].is_punct('=') {
                        eq += 1;
                    }
                    let rhs_end = self.expr_end(eq + 1, end, in_condition);
                    if self.any_tainted(eq + 1, rhs_end, &tainted) {
                        for t in &self.tokens[i + 1..eq.min(self.tokens.len())] {
                            if t.kind == TokenKind::Ident && !Self::is_keyword(&t.text) {
                                tainted.insert(t.text.clone());
                            }
                        }
                    }
                    i = rhs_end;
                    continue;
                }
                if tok.is_ident("for") {
                    let mut in_kw = i + 1;
                    while in_kw <= end && !self.tokens[in_kw].is_ident("in") {
                        in_kw += 1;
                    }
                    let expr_end = self.expr_end(in_kw + 1, end, true);
                    if self.any_tainted(in_kw + 1, expr_end, &tainted) {
                        for t in &self.tokens[i + 1..in_kw.min(self.tokens.len())] {
                            if t.kind == TokenKind::Ident && !Self::is_keyword(&t.text) {
                                tainted.insert(t.text.clone());
                            }
                        }
                    }
                    i = expr_end;
                    continue;
                }
                // Plain or compound assignment outside a `let`.
                if tok.is_punct('=') {
                    let prev = i.checked_sub(1).map(|p| self.tokens[p].text.clone());
                    let next_is_eq = self.tokens.get(i + 1).is_some_and(|t| t.is_punct('='));
                    let prev_cmp = matches!(prev.as_deref(), Some("=" | "<" | ">" | "!"));
                    if !next_is_eq && !prev_cmp {
                        let compound = matches!(
                            prev.as_deref(),
                            Some("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
                        );
                        let lhs_end = if compound { i - 1 } else { i };
                        let (stmt_start, _) = self.stmt_bounds(i);
                        let rhs_end = self.expr_end(i + 1, end, false);
                        if self.any_tainted(i + 1, rhs_end, &tainted) {
                            // `w[i] = secret` taints `w`, not the index `i`: skip
                            // identifiers inside bracket pairs on the left side.
                            let mut bracket = 0i32;
                            for t in &self.tokens[stmt_start..lhs_end] {
                                if t.is_punct('[') {
                                    bracket += 1;
                                } else if t.is_punct(']') {
                                    bracket -= 1;
                                } else if bracket == 0
                                    && t.kind == TokenKind::Ident
                                    && !Self::is_keyword(&t.text)
                                {
                                    tainted.insert(t.text.clone());
                                }
                            }
                        }
                    }
                }
                i += 1;
            }
        }
        tainted
    }

    /// End of the expression starting at `from`: the first `;` (or `{` when
    /// `stop_at_brace`) with parens, brackets, and inner braces balanced.
    fn expr_end(&self, from: usize, limit: usize, stop_at_brace: bool) -> usize {
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut brace = 0i32;
        let mut i = from;
        while i <= limit.min(self.tokens.len().saturating_sub(1)) {
            let t = &self.tokens[i];
            if t.kind == TokenKind::Punct {
                match t.text.as_str() {
                    "(" => paren += 1,
                    ")" => paren -= 1,
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "{" if stop_at_brace && paren == 0 && bracket == 0 && brace == 0 => return i,
                    "{" => brace += 1,
                    "}" if brace == 0 => return i,
                    "}" => brace -= 1,
                    ";" if paren == 0 && bracket == 0 && brace == 0 => return i,
                    _ => {}
                }
            }
            if paren < 0 || bracket < 0 {
                return i;
            }
            i += 1;
        }
        i
    }

    fn any_tainted(&self, start: usize, end: usize, tainted: &HashSet<String>) -> bool {
        self.first_tainted(start, end, tainted).is_some()
    }

    fn first_tainted(&self, start: usize, end: usize, tainted: &HashSet<String>) -> Option<String> {
        self.tokens
            .get(start..end.min(self.tokens.len()))?
            .iter()
            .find(|t| t.kind == TokenKind::Ident && tainted.contains(&t.text))
            .map(|t| t.text.clone())
    }

    fn secret_flow_findings(&mut self, start: usize, end: usize, tainted: &HashSet<String>) {
        let mut i = start;
        while i <= end.min(self.tokens.len().saturating_sub(1)) {
            let tok = &self.tokens[i];
            match tok.kind {
                TokenKind::Ident if matches!(tok.text.as_str(), "if" | "while" | "match") => {
                    let kind = tok.text.clone();
                    let cond_end = self.expr_end(i + 1, end, true);
                    if let Some(name) = self.first_tainted(i + 1, cond_end, tainted) {
                        self.report_at(
                            SECRET_BRANCH,
                            i,
                            format!("`{kind}` on secret-derived `{name}`: branch timing leaks it"),
                        );
                    }
                }
                // Try-operator (not `?Sized`): preceded by an expression end.
                TokenKind::Punct if tok.text == "?" && self.prev_ends_expr(i) => {
                    let (s, _) = self.stmt_bounds(i);
                    if let Some(name) = self.first_tainted(s, i, tainted) {
                        self.report_at(
                            SECRET_BRANCH,
                            i,
                            format!(
                                "`?` early-return on a result derived from secret `{name}`: \
                                 error timing leaks it"
                            ),
                        );
                    }
                }
                TokenKind::Punct
                    if (tok.text == "%" || tok.text == "/") && self.prev_ends_expr(i) =>
                {
                    let (s, e) = self.stmt_bounds(i);
                    if let Some(name) = self.first_tainted(s, e, tainted) {
                        self.report_at(
                            SECRET_DIVMOD,
                            i,
                            format!(
                                "`{}` with secret-derived `{name}` in scope: division is \
                                 variable-time on most CPUs",
                                tok.text
                            ),
                        );
                    }
                }
                TokenKind::Ident
                    if DIVMOD_METHODS.contains(&tok.text.as_str())
                        && i > 0
                        && self.tokens[i - 1].is_punct('.')
                        && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
                {
                    let (s, e) = self.stmt_bounds(i);
                    if let Some(name) = self.first_tainted(s, e, tainted) {
                        self.report_at(
                            SECRET_DIVMOD,
                            i,
                            format!(
                                "`.{}(…)` with secret-derived `{name}` in scope: division is \
                                 variable-time on most CPUs",
                                tok.text
                            ),
                        );
                    }
                }
                TokenKind::Punct if tok.text == "[" && self.prev_ends_expr(i) => {
                    let close = self.matching(i, '[', ']');
                    if let Some(name) = self.first_tainted(i + 1, close, tainted) {
                        self.report_at(
                            SECRET_INDEX,
                            i,
                            format!(
                                "table load indexed by secret-derived `{name}`: cache timing \
                                 leaks the index"
                            ),
                        );
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    // ── rule family 3: hygiene ──────────────────────────────────────────────────

    fn hygiene_rules(&mut self, flags: FileFlags) {
        for i in 0..self.tokens.len() {
            if self.scopes.is_test(i) {
                continue;
            }
            let tok = &self.tokens[i];
            if flags.planning
                && tok.is_ident("thread_local")
                && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                self.report_at(
                    THREAD_LOCAL,
                    i,
                    "no new `thread_local!` caches in planning code: they defeat the \
                     interned-relation sharing model and leak across plans"
                        .to_string(),
                );
            }
            if !flags.seed_authority
                && tok.is_ident("chunk_seed")
                && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                && !(i > 0 && self.tokens[i - 1].is_ident("fn"))
            {
                self.report_at(
                    CHUNK_SEED,
                    i,
                    "per-chunk seeds must be derived inside a `lint: chunk-seed-authority` \
                     file; deriving them ad hoc breaks the nonce-domain discipline"
                        .to_string(),
                );
            }
        }
        self.reseed_rule();
        if flags.crate_root {
            let has_forbid = self.tokens.iter().any(|t| t.is_ident("forbid"))
                && self.tokens.iter().any(|t| t.is_ident("unsafe_code"));
            if !has_forbid {
                self.report(
                    MISSING_FORBID_UNSAFE,
                    1,
                    String::new(),
                    "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
                );
            }
        }
    }

    fn reseed_rule(&mut self) {
        let spans: Vec<(usize, usize, usize, u32)> = self
            .scopes
            .functions
            .iter()
            .filter(|f| f.name == "reseeded" && !f.is_test)
            .map(|f| (f.sig_start, f.start, f.end, f.line))
            .collect();
        for (sig, body, end, line) in spans {
            // Parameters live between the signature's first `(…)` pair.
            let mut open = sig;
            while open < body && !self.tokens[open].is_punct('(') {
                open += 1;
            }
            let close = self.matching(open, '(', ')');
            let params = &self.tokens[open..close.min(body)];
            let ignored = params.iter().any(|t| t.is_ident("_seed"));
            let named = params.iter().any(|t| t.is_ident("seed"));
            let used = named
                && self.tokens[body..=end.min(self.tokens.len().saturating_sub(1))]
                    .iter()
                    .any(|t| t.is_ident("seed"));
            if ignored || (named && !used) {
                self.report(
                    RESEED_USES_SEED,
                    line,
                    "reseeded".to_string(),
                    "`reseeded` must derive its state from the seed parameter; a Scheme that \
                     ignores it reuses randomness across chunks"
                        .to_string(),
                );
            }
        }
    }
}
