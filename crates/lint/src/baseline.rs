//! Baseline bookkeeping and the machine-readable report.
//!
//! The baseline (`LINT_baseline.json`) records *known debts* — findings that are
//! tracked rather than silenced (the AES T-tables, the windowed-exponent branches).
//! CI fails on findings **not** covered by the baseline, so new code is held to the
//! rules while the debt stays visible and enumerable, and on baseline occurrences no
//! finding matches any more, so a retired debt cannot silently cover its return.
//!
//! Baseline entries are keyed by `(rule, file, function, snippet)` with a count,
//! *not* by line number: edits elsewhere in a file move lines constantly, and a
//! line-keyed baseline would churn on every refactor. The snippet (the trimmed
//! source line, ≤120 chars) pins the key to the actual offending code, and the
//! count lets one key cover the N structurally-identical table lookups of a
//! T-table round without hiding an N+1st.
//!
//! Both files are serialized with a small hand-rolled JSON codec (sorted keys,
//! fixed indentation) so regeneration is deterministic and `git diff --exit-code`
//! can verify the committed report is fresh.

use std::collections::HashMap;

use crate::rules::Finding;

// ───────────────────────────── minimal JSON value ─────────────────────────────

/// A parsed JSON value. Only what the baseline format needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (baseline files only hold non-negative integers).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The numeric payload as u64, if this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset for context.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut p = Parser { chars, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("trailing content at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: char) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(format!("expected `{c}` at offset {}", self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        for c in word.chars() {
            self.expect(c)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => self.literal("true", Json::Bool(true)),
            Some('f') => self.literal("false", Json::Bool(false)),
            Some('n') => self.literal("null", Json::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at offset {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(members)),
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".to_string()),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('b') => s.push('\u{8}'),
                    Some('f') => s.push('\u{c}'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d =
                                self.bump().and_then(|c| c.to_digit(16)).ok_or("bad \\u escape")?;
                            code = code * 16 + d;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape".to_string()),
                },
                Some(c) => s.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.bump();
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.bump();
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number `{text}`"))
    }
}

/// Escape and quote a string for JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ──────────────────────────────── the baseline ────────────────────────────────

/// Baseline key: where a debt lives, line-number-free.
pub type BaselineKey = (String, String, String, String);

fn key_of(f: &Finding) -> BaselineKey {
    (f.rule.to_string(), f.file.clone(), f.function.clone(), f.snippet.clone())
}

/// The committed set of known findings, keyed by `(rule, file, function, snippet)`
/// with an occurrence count per key.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Known-debt counts per key.
    pub entries: HashMap<BaselineKey, usize>,
}

impl Baseline {
    /// Build a baseline covering exactly the given findings.
    pub fn from_findings(findings: &[Finding]) -> Self {
        let mut entries: HashMap<BaselineKey, usize> = HashMap::new();
        for f in findings {
            *entries.entry(key_of(f)).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Parse `LINT_baseline.json`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = parse_json(text)?;
        let list =
            doc.get("entries").and_then(Json::as_arr).ok_or("baseline: missing `entries` array")?;
        let mut entries = HashMap::new();
        for item in list {
            let field = |k: &str| {
                item.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("baseline entry: missing string `{k}`"))
            };
            let count =
                item.get("count").and_then(Json::as_u64).ok_or("baseline entry: missing `count`")?
                    as usize;
            entries.insert(
                (field("rule")?, field("file")?, field("function")?, field("snippet")?),
                count,
            );
        }
        Ok(Baseline { entries })
    }

    /// Serialize deterministically (entries sorted by key).
    pub fn to_json(&self) -> String {
        let mut keys: Vec<(&BaselineKey, usize)> =
            self.entries.iter().map(|(k, &c)| (k, c)).collect();
        keys.sort();
        let mut out = String::from("{\n  \"version\": 1,\n  \"entries\": [\n");
        for (i, ((rule, file, function, snippet), count)) in keys.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"rule\": {}, ", json_escape(rule)));
            out.push_str(&format!("\"file\": {}, ", json_escape(file)));
            out.push_str(&format!("\"function\": {}, ", json_escape(function)));
            out.push_str(&format!("\"snippet\": {}, ", json_escape(snippet)));
            out.push_str(&format!("\"count\": {count}}}"));
            out.push_str(if i + 1 < keys.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Match findings against the baseline. Per key, the first `count`
    /// occurrences (in file/line order) are covered; any beyond that — or any
    /// unknown key — are new, and any budget left once every finding is matched
    /// is stale.
    pub fn partition<'a>(&self, findings: &'a [Finding]) -> Partition<'a> {
        let mut remaining = self.entries.clone();
        let mut covered = Vec::new();
        let mut fresh = Vec::new();
        for f in findings {
            match remaining.get_mut(&key_of(f)) {
                Some(budget) if *budget > 0 => {
                    *budget -= 1;
                    covered.push(f);
                }
                _ => fresh.push(f),
            }
        }
        let mut stale: Vec<(BaselineKey, usize)> =
            remaining.into_iter().filter(|&(_, left)| left > 0).collect();
        stale.sort();
        Partition { covered, fresh, stale }
    }
}

/// How a run's findings meet the baseline ([`Baseline::partition`]).
#[derive(Debug)]
pub struct Partition<'a> {
    /// Findings within their key's baselined count.
    pub covered: Vec<&'a Finding>,
    /// Findings beyond their key's count, or under no key.
    pub fresh: Vec<&'a Finding>,
    /// Baseline keys with occurrences no finding matched, and how many, sorted
    /// by key.
    pub stale: Vec<(BaselineKey, usize)>,
}

/// Serialize the full report (`LINT_report.json`): every finding with its line,
/// plus run totals. Deterministic given deterministic finding order.
pub fn report_json(
    findings: &[Finding],
    new_count: usize,
    files_scanned: usize,
    allowed: usize,
) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"findings_total\": {},\n", findings.len()));
    out.push_str(&format!("  \"findings_new\": {new_count},\n"));
    out.push_str(&format!("  \"allow_suppressed\": {allowed},\n"));
    out.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"rule\": {}, ", json_escape(f.rule)));
        out.push_str(&format!("\"file\": {}, ", json_escape(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"function\": {}, ", json_escape(&f.function)));
        out.push_str(&format!("\"message\": {}, ", json_escape(&f.message)));
        out.push_str(&format!("\"snippet\": {}}}", json_escape(&f.snippet)));
        out.push_str(if i + 1 < findings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, line: u32, snippet: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line,
            function: "f".to_string(),
            message: "m".to_string(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn json_roundtrip() {
        let text =
            r#"{"version": 1, "entries": [{"rule": "a\"b", "count": 2, "list": [1, true, null]}]}"#;
        let doc = parse_json(text).unwrap();
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        let first = &doc.get("entries").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(first.get("rule").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(parse_json(&json_escape("x\n\t\"\\ü")).unwrap().as_str(), Some("x\n\t\"\\ü"));
    }

    #[test]
    fn baseline_roundtrip_and_partition() {
        let found = vec![
            finding(crate::rules::SECRET_INDEX, "a.rs", 10, "t[x]"),
            finding(crate::rules::SECRET_INDEX, "a.rs", 20, "t[x]"),
            finding(crate::rules::SECRET_INDEX, "a.rs", 30, "t[y]"),
        ];
        let base = Baseline::from_findings(&found[..2]);
        let reparsed = Baseline::parse(&base.to_json()).unwrap();
        let matched = reparsed.partition(&found);
        assert_eq!(matched.covered.len(), 2);
        assert_eq!(matched.fresh.len(), 1);
        assert_eq!(matched.fresh[0].line, 30);
        assert!(matched.stale.is_empty());
    }

    #[test]
    fn extra_occurrence_of_known_key_is_new() {
        let one = vec![finding(crate::rules::SECRET_BRANCH, "a.rs", 5, "if x")];
        let base = Baseline::from_findings(&one);
        let two = vec![
            finding(crate::rules::SECRET_BRANCH, "a.rs", 5, "if x"),
            finding(crate::rules::SECRET_BRANCH, "a.rs", 9, "if x"),
        ];
        let fresh = base.partition(&two).fresh;
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].line, 9);
    }

    #[test]
    fn budget_no_finding_matches_is_stale() {
        let two = vec![
            finding(crate::rules::SECRET_INDEX, "a.rs", 5, "t[x]"),
            finding(crate::rules::SECRET_INDEX, "a.rs", 9, "t[x]"),
        ];
        let base = Baseline::from_findings(&two);
        let matched = base.partition(&two[..1]);
        assert_eq!(matched.covered.len(), 1);
        assert!(matched.fresh.is_empty());
        assert_eq!(matched.stale, vec![(key_of(&two[0]), 1)]);
        // Every occurrence matched: nothing is stale.
        assert!(base.partition(&two).stale.is_empty());
    }
}
