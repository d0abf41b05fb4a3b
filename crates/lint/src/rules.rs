//! The rule matcher: token stream → findings.
//!
//! Rules (see docs/LINT.md for the catalog and the contract mapping):
//!
//! - `map-iteration` — iteration over `HashMap`/`HashSet` in deterministic
//!   code. Receivers are tracked *by name*: any binding, field, or
//!   parameter declared with a `HashMap`/`HashSet` type (or initialized
//!   from `HashMap::new()`-style constructors) in the same file.
//! - `host-time` — `Instant`, `SystemTime`, `thread_rng`, `OsRng`,
//!   `from_entropy`, `getrandom`, `std::thread::current`, and the CPU
//!   feature probes `is_x86_feature_detected` / `is_aarch64_feature_detected`
//!   in deterministic code. `Duration` is pure data and allowed.
//! - `rng-in-branch` — an RNG draw lexically inside an `if`/`while`/
//!   `match` whose condition/scrutinee mentions a tracked map name: the
//!   draw count (and thus the stream position) would depend on unordered
//!   collection state. Heuristic by design; suppress with a marker when
//!   the guard is order-independent.
//! - `unsafe-audit` — every `unsafe` token must have a `// SAFETY:`
//!   comment on the same line or in the comment block directly above.
//! - `panic-path` — `.unwrap()`, `.expect(…)`, `panic!(…)`, and
//!   indexing-by-integer-literal in library, non-test code.
//!
//! Suppression: `// lint:allow(<rule>, reason = "…")` on the finding's
//! line or the line directly above. The reason is mandatory; a marker
//! that does not parse, names an unknown rule, or has an empty reason is
//! itself a finding (`bad-marker`).

use crate::config::FileClass;
use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeSet;

/// Every rule the matcher can emit, in report order.
pub const RULES: &[&str] = &[
    "map-iteration",
    "host-time",
    "rng-in-branch",
    "unsafe-audit",
    "panic-path",
    "lex-error",
    "bad-marker",
];

/// Rules a `lint:allow` marker may name (the bookkeeping rules
/// `lex-error`/`bad-marker` are not suppressible).
pub const SUPPRESSIBLE: &[&str] = &[
    "map-iteration",
    "host-time",
    "rng-in-branch",
    "unsafe-audit",
    "panic-path",
];

/// One diagnostic. `allowed` carries the marker reason when suppressed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// `Some(reason)` when a `lint:allow` marker (or `SAFETY:` comment,
    /// for `unsafe-audit`) suppresses this finding.
    pub allowed: Option<String>,
}

/// An in-source `// lint:allow(rule, reason = "…")` marker.
#[derive(Debug, Clone)]
struct AllowMarker {
    rule: String,
    reason: String,
    /// Last line the marker's comment occupies (markers apply to their
    /// own line and the one below).
    end_line: u32,
}

/// Lint one file's source text under `class`. `rel` is used only for
/// labeling findings.
pub fn lint_source(rel: &str, class: FileClass, src: &str) -> Vec<Finding> {
    let tokens = match lex(src) {
        Ok(t) => t,
        Err(e) => {
            return vec![Finding {
                rule: "lex-error",
                file: rel.to_string(),
                line: e.line,
                message: format!("cannot lex file at byte {}: {}", e.at, e.message),
                allowed: None,
            }]
        }
    };
    let (code, comments): (Vec<Token>, Vec<Token>) = tokens
        .iter()
        .partition(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment));

    let mut findings: Vec<Finding> = Vec::new();
    let (markers, marker_findings) = parse_markers(rel, src, &comments);
    findings.extend(marker_findings);

    let test_regions = test_regions(src, &code);
    let in_test = |pos: usize| test_regions.iter().any(|&(s, e)| pos >= s && pos < e);

    let map_names = collect_map_names(src, &code);

    let mut raw: Vec<(&'static str, u32, usize, String)> = Vec::new(); // (rule, line, pos, msg)

    if class.deterministic {
        rule_map_iteration(src, &code, &map_names, &mut raw);
        rule_host_time(src, &code, &mut raw);
        rule_rng_in_branch(src, &code, &map_names, &mut raw);
    }
    rule_unsafe_audit(src, &code, &comments, &mut raw);
    if class.library {
        rule_panic_path(src, &code, &mut raw);
    }

    // Drop determinism/panic findings inside `#[test]` / `#[cfg(test)]`
    // regions (unsafe-audit stays: SAFETY comments are required even in
    // tests), then dedupe per (rule, line) and apply markers.
    raw.retain(|(rule, _, pos, _)| *rule == "unsafe-audit" || !in_test(*pos));
    raw.sort_by_key(|(rule, line, _, _)| (*line, *rule));
    raw.dedup_by_key(|(rule, line, _, _)| (*line, *rule));

    for (rule, line, _, message) in raw {
        let allowed = markers
            .iter()
            .find(|m| m.rule == rule && (m.end_line == line || m.end_line + 1 == line))
            .map(|m| m.reason.clone());
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line,
            message,
            allowed,
        });
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------------
// Marker parsing
// ---------------------------------------------------------------------------

fn parse_markers(rel: &str, src: &str, comments: &[Token]) -> (Vec<AllowMarker>, Vec<Finding>) {
    let mut markers = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let text = c.text(src);
        // A marker must be the comment's leading content (`// lint:allow(…)`);
        // prose *mentioning* the syntax mid-comment is not a marker.
        let content = text.trim_start_matches(['/', '*', '!']).trim_start();
        if !content.starts_with("lint:allow") {
            continue;
        }
        let end_line = c.line + text.matches('\n').count() as u32;
        let rest = &content["lint:allow".len()..];
        match parse_one_marker(rest) {
            Ok((rule, reason)) => {
                if !SUPPRESSIBLE.contains(&rule.as_str()) {
                    findings.push(Finding {
                        rule: "bad-marker",
                        file: rel.to_string(),
                        line: c.line,
                        message: format!(
                            "lint:allow names unknown or non-suppressible rule `{rule}`"
                        ),
                        allowed: None,
                    });
                } else {
                    markers.push(AllowMarker {
                        rule,
                        reason,
                        end_line,
                    });
                }
            }
            Err(why) => findings.push(Finding {
                rule: "bad-marker",
                file: rel.to_string(),
                line: c.line,
                message: format!("malformed lint:allow marker: {why}"),
                allowed: None,
            }),
        }
    }
    (markers, findings)
}

/// Parse `(<rule>, reason = "…")` with a mandatory non-empty reason.
fn parse_one_marker(rest: &str) -> Result<(String, String), String> {
    let rest = rest.trim_start();
    let Some(body) = rest.strip_prefix('(') else {
        return Err("expected `(` after lint:allow".to_string());
    };
    let Some(close) = body.rfind(')') else {
        return Err("missing closing `)`".to_string());
    };
    let body = &body[..close];
    let Some((rule, reason_part)) = body.split_once(',') else {
        return Err(
            "expected `lint:allow(<rule>, reason = \"…\")` — reason is mandatory".to_string(),
        );
    };
    let rule = rule.trim().to_string();
    let reason_part = reason_part.trim();
    let Some(eq) = reason_part.strip_prefix("reason") else {
        return Err("expected `reason = \"…\"` after the rule name".to_string());
    };
    let Some(val) = eq.trim_start().strip_prefix('=') else {
        return Err("expected `=` after `reason`".to_string());
    };
    let val = val.trim();
    let inner = val
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| "reason must be a double-quoted string".to_string())?;
    if inner.trim().is_empty() {
        return Err("reason must not be empty".to_string());
    }
    Ok((rule, inner.to_string()))
}

// ---------------------------------------------------------------------------
// Test-region detection
// ---------------------------------------------------------------------------

/// Byte ranges of items annotated with a `test`-bearing attribute
/// (`#[test]`, `#[cfg(test)] mod …`). Attributes containing `not` are
/// ignored so `#[cfg(not(test))]` code stays checked.
///
/// An item region ends at its `;` or at the `}` closing its first
/// top-level `{…}`. A field — a struct field, struct-literal field, enum
/// variant or match arm, i.e. anything not led by an item keyword — also
/// ends at its own top-level `,` or before the `}` / `)` / `]` that
/// encloses it, so the code after a test-only field stays checked.
fn test_regions(src: &str, code: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !(is_punct(src, code, i, "#") && is_punct(src, code, i + 1, "[")) {
            i += 1;
            continue;
        }
        // Find the matching `]` and look for `test` inside.
        let Some(attr_end) = matching_close(src, code, i + 1, "[", "]") else {
            break;
        };
        let mut has_test = false;
        let mut has_not = false;
        for t in &code[i + 2..attr_end] {
            if t.kind == TokenKind::Ident {
                match t.text(src) {
                    "test" => has_test = true,
                    "not" => has_not = true,
                    _ => {}
                }
            }
        }
        if !has_test || has_not {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then scan the attributed item.
        let mut j = attr_end + 1;
        while is_punct(src, code, j, "#") && is_punct(src, code, j + 1, "[") {
            match matching_close(src, code, j + 1, "[", "]") {
                Some(e) => j = e + 1,
                None => return regions,
            }
        }
        let field = is_field_start(src, code, j);
        let mut depth = 0usize;
        let mut k = j;
        while let Some(t) = code.get(k) {
            let punct = t.kind == TokenKind::Punct;
            let p = if punct { t.text(src) } else { "" };
            match p {
                "{" if depth == 0 => {
                    let close = matching_close(src, code, k, "{", "}");
                    regions.push((code[i].start, close.map_or(src.len(), |e| code[e].end)));
                    break;
                }
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if depth == 0 => {
                    // the enclosing delimiter: the field ends before it
                    regions.push((code[i].start, code[k - 1].end));
                    k -= 1;
                    break;
                }
                ")" | "]" | "}" => depth -= 1,
                ";" | "," if depth == 0 && (field || p == ";") => {
                    regions.push((code[i].start, code[k].end));
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        i = k + 1;
    }
    regions
}

/// Keywords that open an item or a statement rather than a field.
const ITEM_KEYWORDS: &str =
    "fn impl mod struct enum union trait type use const static extern unsafe async macro_rules let";

/// Whether `code[j]` starts a field rather than an item or statement:
/// after an optional `pub` / `pub(…)`, no item keyword leads it.
fn is_field_start(src: &str, code: &[Token], mut j: usize) -> bool {
    if is_ident(src, code, j, "pub") {
        j += 1;
        if is_punct(src, code, j, "(") {
            j = matching_close(src, code, j, "(", ")").map_or(j, |e| e + 1);
        }
    }
    !ident_at(src, code, j).is_some_and(|w| ITEM_KEYWORDS.split(' ').any(|k| k == w))
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn is_punct(src: &str, code: &[Token], i: usize, p: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == p)
}

fn is_ident(src: &str, code: &[Token], i: usize, name: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text(src) == name)
}

fn ident_at<'a>(src: &'a str, code: &[Token], i: usize) -> Option<&'a str> {
    code.get(i)
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text(src))
}

/// Index of the token closing the delimiter opened at `open_idx`.
fn matching_close(
    src: &str,
    code: &[Token],
    open_idx: usize,
    open: &str,
    close: &str,
) -> Option<usize> {
    let mut depth = 0i64;
    for (j, t) in code.iter().enumerate().skip(open_idx) {
        if t.kind == TokenKind::Punct {
            let s = t.text(src);
            if s == open {
                depth += 1;
            } else if s == close {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Map-name tracking
// ---------------------------------------------------------------------------

/// Names declared (anywhere in the file) with a `HashMap`/`HashSet` type
/// or initialized from a `HashMap::…`/`HashSet::…` constructor.
fn collect_map_names(src: &str, code: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        let Some(id) = ident_at(src, code, i) else {
            continue;
        };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // `let [mut] name = HashMap::new()` / `HashMap::with_capacity(…)`.
        if i >= 2 && is_punct(src, code, i - 1, "=") {
            if let Some(name) = ident_at(src, code, i - 2) {
                if name != "mut" {
                    names.insert(name.to_string());
                }
            }
            continue;
        }
        // `name: [&/mut/wrapper<…] [path::]HashMap<…>` — walk back over
        // references, `mut`, single-level wrappers (`Option<`, `Arc<`),
        // and `path::` segments to the declaring `name:`.
        let mut j = i;
        loop {
            if j >= 3
                && is_punct(src, code, j - 1, ":")
                && is_punct(src, code, j - 2, ":")
                && ident_at(src, code, j - 3).is_some()
            {
                j -= 3; // path segment `seg::`
                continue;
            }
            if j >= 1 && (is_punct(src, code, j - 1, "&") || is_ident(src, code, j - 1, "mut")) {
                j -= 1;
                continue;
            }
            if j >= 2 && is_punct(src, code, j - 1, "<") && ident_at(src, code, j - 2).is_some() {
                j -= 2; // wrapper like `Option<`, `Arc<`
                continue;
            }
            break;
        }
        // Declaration colon: single `:` (not `::`) preceded by the name.
        if j >= 2 && is_punct(src, code, j - 1, ":") && !is_punct(src, code, j - 2, ":") {
            if let Some(name) = ident_at(src, code, j - 2) {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// Names declared (anywhere in the file) with a fixed-size array type
/// (`name: [T; N]`) or initialized from an array literal (`let name =
/// […]`). Indexing these by an in-bounds integer literal is checked by
/// the compiler, so `panic-path` skips them — the dangerous receivers
/// are `Vec`s and slices.
fn collect_array_names(src: &str, code: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        if !is_punct(src, code, i, "[") {
            continue;
        }
        // `name: [T; N]` (fields, lets with annotation, params) — walk
        // back over `&`/`mut` to the declaring colon.
        let mut j = i;
        while j >= 1 && (is_punct(src, code, j - 1, "&") || is_ident(src, code, j - 1, "mut")) {
            j -= 1;
        }
        if j >= 2 && is_punct(src, code, j - 1, ":") && !is_punct(src, code, j - 2, ":") {
            if let Some(name) = ident_at(src, code, j - 2) {
                names.insert(name.to_string());
                continue;
            }
        }
        // `let [mut] name = [… ; N]` / `= [a, b, c]`.
        if i >= 2 && is_punct(src, code, i - 1, "=") {
            if let Some(name) = ident_at(src, code, i - 2) {
                if name != "mut" {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

fn rule_map_iteration(
    src: &str,
    code: &[Token],
    names: &BTreeSet<String>,
    out: &mut Vec<(&'static str, u32, usize, String)>,
) {
    for i in 0..code.len() {
        // `name.method(` where method is an iteration method.
        if let Some(m) = ident_at(src, code, i) {
            if ITER_METHODS.contains(&m)
                && is_punct(src, code, i.wrapping_sub(1), ".")
                && is_punct(src, code, i + 1, "(")
                && i >= 2
            {
                if let Some(recv) = ident_at(src, code, i - 2) {
                    if names.contains(recv) {
                        out.push((
                            "map-iteration",
                            code[i].line,
                            code[i].start,
                            format!(
                                "`{recv}.{m}()` iterates a HashMap/HashSet — order is \
                                 unspecified; use a BTreeMap/BTreeSet, sort first, or \
                                 mark the fold order-independent with lint:allow"
                            ),
                        ));
                    }
                }
            }
            // `for pat in [&|mut] [self.]name {`
            if m == "for" {
                // Find `in` before the loop `{` at delimiter depth 0.
                let mut depth = 0i64;
                let mut in_idx = None;
                for (j, tok) in code.iter().enumerate().skip(i + 1) {
                    let t = tok.text(src);
                    match t {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        "in" if depth == 0 && tok.kind == TokenKind::Ident => {
                            in_idx = Some(j);
                        }
                        _ => {}
                    }
                    if j > i + 64 {
                        break; // defensive bound on header length
                    }
                }
                let Some(start) = in_idx else { continue };
                // Expression tokens between `in` and `{` must be a bare
                // (possibly referenced / field-accessed) path ending in a
                // tracked name.
                let mut k = start + 1;
                let mut last_ident: Option<&str> = None;
                let mut bare = true;
                while k < code.len() {
                    let t = code[k].text(src);
                    if t == "{" {
                        break;
                    }
                    match (code[k].kind, t) {
                        (TokenKind::Punct, "&") | (TokenKind::Punct, ".") => {}
                        (TokenKind::Ident, "mut") => {}
                        (TokenKind::Ident, _) => last_ident = Some(t),
                        _ => {
                            bare = false;
                            break;
                        }
                    }
                    k += 1;
                }
                if bare {
                    if let Some(name) = last_ident {
                        if names.contains(name) {
                            out.push((
                                "map-iteration",
                                code[i].line,
                                code[i].start,
                                format!(
                                    "`for … in {name}` iterates a HashMap/HashSet — order \
                                     is unspecified; use a BTreeMap/BTreeSet, sort first, \
                                     or mark the body order-independent with lint:allow"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

const HOST_TIME_IDENTS: &[(&str, &str)] = &[
    ("Instant", "host monotonic clock"),
    ("SystemTime", "host wall clock"),
    ("thread_rng", "ambient thread-local RNG"),
    ("OsRng", "OS entropy source"),
    ("from_entropy", "OS entropy seeding"),
    ("getrandom", "OS entropy source"),
    ("is_x86_feature_detected", "host CPU feature probe"),
    ("is_aarch64_feature_detected", "host CPU feature probe"),
];

fn rule_host_time(src: &str, code: &[Token], out: &mut Vec<(&'static str, u32, usize, String)>) {
    for i in 0..code.len() {
        let Some(id) = ident_at(src, code, i) else {
            continue;
        };
        if let Some((_, what)) = HOST_TIME_IDENTS.iter().find(|(n, _)| *n == id) {
            out.push((
                "host-time",
                code[i].line,
                code[i].start,
                format!(
                    "`{id}` ({what}) in deterministic code — simulation state must \
                     derive only from the seed and the event timeline"
                ),
            ));
        }
        if id == "current"
            && i >= 3
            && is_ident(src, code, i - 3, "thread")
            && is_punct(src, code, i - 2, ":")
            && is_punct(src, code, i - 1, ":")
        {
            out.push((
                "host-time",
                code[i].line,
                code[i].start,
                "`std::thread::current()` in deterministic code — thread identity must \
                 never influence simulation state"
                    .to_string(),
            ));
        }
    }
}

const RNG_DRAWS: &[&str] = &[
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "next_u32",
    "next_u64",
    "fill_bytes",
    "random",
];

fn rule_rng_in_branch(
    src: &str,
    code: &[Token],
    names: &BTreeSet<String>,
    out: &mut Vec<(&'static str, u32, usize, String)>,
) {
    // Collect block regions guarded by a condition that mentions a
    // tracked map name.
    let mut regions: Vec<(usize, usize)> = Vec::new();
    for i in 0..code.len() {
        let Some(kw) = ident_at(src, code, i) else {
            continue;
        };
        if kw != "if" && kw != "while" && kw != "match" {
            continue;
        }
        let mut depth = 0i64;
        let mut mentions_map = false;
        let mut open = None;
        for (j, tok) in code.iter().enumerate().skip(i + 1) {
            let t = tok.text(src);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => {
                    open = Some(j);
                    break;
                }
                _ => {
                    if tok.kind == TokenKind::Ident && names.contains(t) {
                        mentions_map = true;
                    }
                }
            }
        }
        if !mentions_map {
            continue;
        }
        let Some(open) = open else { continue };
        let close = matching_close(src, code, open, "{", "}").unwrap_or(code.len() - 1);
        regions.push((code[open].start, code[close].end));
    }
    if regions.is_empty() {
        return;
    }
    for i in 0..code.len() {
        let Some(m) = ident_at(src, code, i) else {
            continue;
        };
        if RNG_DRAWS.contains(&m)
            && is_punct(src, code, i.wrapping_sub(1), ".")
            && is_punct(src, code, i + 1, "(")
            && regions
                .iter()
                .any(|&(s, e)| code[i].start >= s && code[i].start < e)
        {
            out.push((
                "rng-in-branch",
                code[i].line,
                code[i].start,
                format!(
                    "RNG draw `.{m}()` inside a branch conditioned on HashMap/HashSet \
                     state — the stream position would depend on unordered collection \
                     contents"
                ),
            ));
        }
    }
}

fn rule_unsafe_audit(
    src: &str,
    code: &[Token],
    comments: &[Token],
    out: &mut Vec<(&'static str, u32, usize, String)>,
) {
    // Per-line map: does a comment occupy this line, and does it carry a
    // SAFETY: tag? Block comments may span lines.
    let mut line_comment: std::collections::BTreeMap<u32, bool> = std::collections::BTreeMap::new();
    for c in comments {
        let text = c.text(src);
        let has_safety = text.contains("SAFETY:");
        let last = c.line + text.matches('\n').count() as u32;
        for l in c.line..=last {
            let e = line_comment.entry(l).or_insert(false);
            *e = *e || has_safety;
        }
    }
    for t in code {
        if t.kind != TokenKind::Ident || t.text(src) != "unsafe" {
            continue;
        }
        // Same line, or walk up through the adjacent comment block.
        let mut ok = line_comment.get(&t.line).copied().unwrap_or(false);
        let mut l = t.line.saturating_sub(1);
        while !ok {
            match line_comment.get(&l) {
                Some(true) => ok = true,
                Some(false) if l > 0 => l -= 1,
                _ => break,
            }
        }
        if !ok {
            out.push((
                "unsafe-audit",
                t.line,
                t.start,
                "`unsafe` without an adjacent `// SAFETY:` comment justifying why the \
                 invariants hold"
                    .to_string(),
            ));
        }
    }
}

fn rule_panic_path(src: &str, code: &[Token], out: &mut Vec<(&'static str, u32, usize, String)>) {
    let array_names = collect_array_names(src, code);
    for i in 0..code.len() {
        let t = &code[i];
        match t.kind {
            TokenKind::Ident => {
                let id = t.text(src);
                if (id == "unwrap" || id == "expect")
                    && is_punct(src, code, i.wrapping_sub(1), ".")
                    && is_punct(src, code, i + 1, "(")
                {
                    out.push((
                        "panic-path",
                        t.line,
                        t.start,
                        format!(
                            "`.{id}()` on a library path — return an error, prove the \
                             case impossible, or justify with lint:allow"
                        ),
                    ));
                }
                if id == "panic" && is_punct(src, code, i + 1, "!") {
                    out.push((
                        "panic-path",
                        t.line,
                        t.start,
                        "`panic!` on a library path — return an error or justify with \
                         lint:allow"
                            .to_string(),
                    ));
                }
            }
            // Fixed-size arrays are bounds-checked by the compiler, so a
            // literal index only fires on untracked receivers.
            TokenKind::Punct
                if t.text(src) == "["
                    && i >= 1
                    && matches!(
                        (code[i - 1].kind, code[i - 1].text(src)),
                        (TokenKind::Ident, _) | (TokenKind::Punct, ")") | (TokenKind::Punct, "]")
                    )
                    && code.get(i + 1).is_some_and(|n| n.kind == TokenKind::Int)
                    && is_punct(src, code, i + 2, "]")
                    && ident_at(src, code, i - 1).is_none_or(|r| !array_names.contains(r)) =>
            {
                out.push((
                    "panic-path",
                    t.line,
                    t.start,
                    "indexing by integer literal can panic — use `.get(n)` or \
                     justify with lint:allow"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}
