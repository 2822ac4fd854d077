//! Hand-rolled JSON for verdict reports: a tiny value model with a
//! writer **and** a parser, so every report the engine emits can be read
//! back ([`Verdict::from_json`]) and its evidence re-checked offline.
//!
//! The offline build has no serde, so this model is the workspace's one
//! JSON writer and parser: the bench crate writes its `BENCH_*.json`
//! records through it too. The round-trip tests pin the parse direction.
//!
//! Two conventions keep the format lossless:
//!
//! * `u128` quantities (output counts, gcds) are emitted as **strings** —
//!   JSON numbers are doubles and would silently round above `2^53`;
//! * decision maps serialize as `(n, rounds, assignment)` and are
//!   rebuilt through the deterministic signature quotient on parse.

use std::fmt::Write as _;
use std::time::Duration;

use gsb_core::{GsbSpec, Solvability, SymmetricGsb};
use gsb_topology::{DecisionMap, SearchStats};

use crate::error::{Error, Result};
use crate::evidence::{AtlasCell, Evidence};
use crate::query::Question;
use crate::verdict::{Provenance, RunStats, Verdict};

/// A JSON value. Objects preserve key order (reports stay diffable).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (doubles, like JSON itself).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline (the
    /// report-file convention of the bench emitters).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders the value on a single line with no decorative whitespace
    /// — the JSON-lines convention of the serve wire protocol and the
    /// verdict store, where one value must occupy exactly one line.
    #[must_use]
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                let _ = write!(out, "{x}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Json`] on malformed input (with a byte offset).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            chars: text.char_indices().peekable(),
            len: text.len(),
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if let Some(&(at, c)) = p.chars.peek() {
            return Err(json_err(
                at,
                format!("trailing content starting with '{c}'"),
            ));
        }
        Ok(value)
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_err(at: usize, details: impl std::fmt::Display) -> Error {
    Error::Json {
        details: format!("at byte {at}: {details}"),
    }
}

/// Nesting ceiling for parsed documents. The parser recurses per
/// container level, so without a ceiling a `[[[[…` bomb from an
/// untrusted peer overflows the stack; every report the engine itself
/// writes is a handful of levels deep.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    len: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<()> {
        match self.chars.next() {
            Some((_, c)) if c == want => Ok(()),
            Some((at, c)) => Err(json_err(at, format!("expected '{want}', found '{c}'"))),
            None => Err(json_err(self.len, format!("expected '{want}', found end"))),
        }
    }

    fn value(&mut self) -> Result<Json> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some((_, '{')) => self.object(),
            Some((_, '[')) => self.array(),
            Some((_, '"')) => Ok(Json::Str(self.string()?)),
            Some((_, 't')) => self.keyword("true", Json::Bool(true)),
            Some((_, 'f')) => self.keyword("false", Json::Bool(false)),
            Some((_, 'n')) => self.keyword("null", Json::Null),
            Some((_, c)) if c == '-' || c.is_ascii_digit() => self.number(),
            Some((at, c)) => Err(json_err(at, format!("unexpected '{c}'"))),
            None => Err(json_err(self.len, "unexpected end of input")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json> {
        let mut text = String::new();
        let start = self.chars.peek().map_or(self.len, |&(at, _)| at);
        while let Some(&(_, c)) = self.chars.peek() {
            if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                text.push(c);
                self.chars.next();
            } else {
                break;
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| json_err(start, format!("bad number '{text}': {e}")))
    }

    fn string(&mut self) -> Result<String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((at, '\\')) => match self.chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'b')) => out.push('\u{8}'),
                    Some((_, 'f')) => out.push('\u{c}'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, 'u')) => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let Some((at, c)) = self.chars.next() else {
                                return Err(json_err(self.len, "truncated \\u escape"));
                            };
                            let digit = c
                                .to_digit(16)
                                .ok_or_else(|| json_err(at, format!("bad hex digit '{c}'")))?;
                            code = code * 16 + digit;
                        }
                        // Surrogates are not produced by our writer;
                        // map unpaired ones to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    Some((at, c)) => return Err(json_err(at, format!("bad escape '\\{c}'"))),
                    None => return Err(json_err(at, "truncated escape")),
                },
                Some((_, c)) => out.push(c),
                None => return Err(json_err(self.len, "unterminated string")),
            }
        }
    }

    /// Enters one container level, failing on pathological nesting.
    fn descend(&mut self) -> Result<()> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            let at = self.chars.peek().map_or(self.len, |&(at, _)| at);
            return Err(json_err(
                at,
                format!("nesting exceeds {MAX_JSON_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    fn array(&mut self) -> Result<Json> {
        self.descend()?;
        let out = self.array_body();
        self.depth -= 1;
        out
    }

    fn array_body(&mut self) -> Result<Json> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, ']'))) {
            self.chars.next();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => {}
                Some((_, ']')) => return Ok(Json::Arr(items)),
                Some((at, c)) => {
                    return Err(json_err(at, format!("expected ',' or ']', found '{c}'")))
                }
                None => return Err(json_err(self.len, "unterminated array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.descend()?;
        let out = self.object_body();
        self.depth -= 1;
        out
    }

    fn object_body(&mut self) -> Result<Json> {
        self.expect('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if matches!(self.chars.peek(), Some((_, '}'))) {
            self.chars.next();
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.chars.next() {
                Some((_, ',')) => {}
                Some((_, '}')) => return Ok(Json::Obj(pairs)),
                Some((at, c)) => {
                    return Err(json_err(at, format!("expected ',' or '}}', found '{c}'")))
                }
                None => return Err(json_err(self.len, "unterminated object")),
            }
        }
    }
}

// ── field helpers ───────────────────────────────────────────────────────

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json> {
    obj.get(key).ok_or_else(|| Error::Json {
        details: format!("missing field '{key}'"),
    })
}

/// Interprets a JSON number as a non-negative integer. Untrusted bytes
/// must not alias legal values through float→int truncation (`-1 as
/// usize` is 0, `1.5 as usize` is 1), so negative, fractional,
/// non-finite, and beyond-2^53 numbers are rejected outright.
fn checked_uint(x: f64, key: &str) -> Result<u64> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    if x.is_finite() && x >= 0.0 && x.fract() == 0.0 && x <= MAX_EXACT {
        Ok(x as u64)
    } else {
        Err(Error::Json {
            details: format!("field '{key}' is not a non-negative integer"),
        })
    }
}

fn usize_field(obj: &Json, key: &str) -> Result<usize> {
    let x = field(obj, key)?.as_f64().ok_or_else(|| Error::Json {
        details: format!("field '{key}' is not a number"),
    })?;
    checked_uint(x, key).map(|v| v as usize)
}

fn u64_field(obj: &Json, key: &str) -> Result<u64> {
    let x = field(obj, key)?.as_f64().ok_or_else(|| Error::Json {
        details: format!("field '{key}' is not a number"),
    })?;
    checked_uint(x, key)
}

/// A counter field that postdates stored payloads: absent (or null)
/// reads as zero, so older payloads keep parsing.
fn opt_u64_field(obj: &Json, key: &str) -> Result<u64> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(0),
        Some(_) => u64_field(obj, key),
    }
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str> {
    field(obj, key)?.as_str().ok_or_else(|| Error::Json {
        details: format!("field '{key}' is not a string"),
    })
}

fn bool_field(obj: &Json, key: &str) -> Result<bool> {
    field(obj, key)?.as_bool().ok_or_else(|| Error::Json {
        details: format!("field '{key}' is not a boolean"),
    })
}

fn usize_array(value: &Json, key: &str) -> Result<Vec<usize>> {
    let items = value.as_arr().ok_or_else(|| Error::Json {
        details: format!("field '{key}' is not an array"),
    })?;
    items
        .iter()
        .map(|item| {
            let x = item.as_f64().ok_or_else(|| Error::Json {
                details: format!("field '{key}' holds a non-number"),
            })?;
            checked_uint(x, key).map(|v| v as usize)
        })
        .collect()
}

fn u128_str_field(obj: &Json, key: &str) -> Result<u128> {
    str_field(obj, key)?.parse().map_err(|e| Error::Json {
        details: format!("field '{key}' is not a u128 string: {e}"),
    })
}

/// A duration as milliseconds, computed from whole nanoseconds so that
/// [`duration_from_ms`] recovers it exactly: a parsed report re-renders
/// byte-identically.
fn duration_ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// A millisecond count as a [`Duration`] rounded to whole nanoseconds,
/// rejecting infinities (which untrusted numbers like `1e999` parse to)
/// and magnitudes past `u64` nanoseconds.
fn duration_from_ms(ms: f64, key: &str) -> Result<Duration> {
    let nanos = (ms.max(0.0) * 1e6).round();
    if nanos.is_finite() && nanos < u64::MAX as f64 {
        Ok(Duration::from_nanos(nanos as u64))
    } else {
        Err(Error::Json {
            details: format!("field '{key}' is not a finite duration"),
        })
    }
}

/// Facet ceiling for decision maps parsed from untrusted bytes.
/// `χ^r(Δ^{n−1})` has `fubini(n)^r` facets, and a check of the decoded
/// map ([`DecisionMap::check`]) streams every one of them into its
/// facet-class table, so a crafted `(n, rounds)` pair would otherwise
/// turn a parse-then-check into an out-of-memory build. The ceiling
/// comfortably covers every complex the engine has ever searched
/// (χ³(Δ³) = 421,875, χ²(Δ⁴) = 292,681, χ²(Δ⁵) = 21,932,489 facets).
const MAX_REBUILD_FACETS: u128 = 30_000_000;

/// Rejects `(n, rounds)` pairs whose facet-class table would hold more
/// than [`MAX_REBUILD_FACETS`] facets (or a degenerate `n = 0`).
///
/// Decoding builds nothing: a decision map is `(n, rounds,
/// assignment)`. The guard bounds the table a check of the decoded map
/// would build, so every map a parse accepts can also be checked.
fn rebuild_cost_guard(n: usize, rounds: usize) -> Result<()> {
    let oversized = || Error::Json {
        details: format!(
            "decision map over χ^{rounds}(Δ^{}) exceeds the \
             {MAX_REBUILD_FACETS}-facet rebuild ceiling",
            n.saturating_sub(1)
        ),
    };
    if n == 0 {
        return Err(Error::Json {
            details: "decision map needs at least one process".into(),
        });
    }
    if rounds > 64 {
        return Err(oversized());
    }
    // fubini(k) = Σ_{j=1..k} C(k, j)·fubini(k−j); fubini(11) > 10^9
    // already exceeds the ceiling at a single round, so larger n are
    // rejected without computing further.
    if n > 11 {
        return Err(oversized());
    }
    let mut fubini: Vec<u128> = vec![1];
    for k in 1..=n {
        let mut total: u128 = 0;
        let mut binom: u128 = 1;
        for j in 1..=k {
            binom = binom * (k + 1 - j) as u128 / j as u128;
            total = total.saturating_add(binom.saturating_mul(fubini[k - j]));
        }
        fubini.push(total);
    }
    let per_round = fubini[n];
    let mut facets: u128 = 1;
    for _ in 0..rounds {
        facets = facets.checked_mul(per_round).ok_or_else(oversized)?;
        if facets > MAX_REBUILD_FACETS {
            return Err(oversized());
        }
    }
    Ok(())
}

// ── domain (de)serialization ────────────────────────────────────────────

/// Serializes a task specification as the JSON object the verdict
/// report format uses (`{"n": …, "lower": […], "upper": […]}`). Public
/// so wire protocols (the serve crate's request format, the verdict
/// store's canonical keys) speak the exact same spec encoding as the
/// reports.
#[must_use]
pub fn spec_to_json(spec: &GsbSpec) -> Json {
    Json::Obj(vec![
        ("n".into(), Json::Num(spec.n() as f64)),
        (
            "lower".into(),
            Json::Arr(
                spec.lower_bounds()
                    .iter()
                    .map(|&x| Json::Num(x as f64))
                    .collect(),
            ),
        ),
        (
            "upper".into(),
            Json::Arr(
                spec.upper_bounds()
                    .iter()
                    .map(|&x| Json::Num(x as f64))
                    .collect(),
            ),
        ),
    ])
}

/// Parses a task specification back from [`spec_to_json`] output.
///
/// # Errors
///
/// Returns [`Error::Json`] on malformed shapes and wraps the core
/// validation error for inconsistent bounds.
pub fn spec_from_json(value: &Json) -> Result<GsbSpec> {
    let n = usize_field(value, "n")?;
    let lower = usize_array(field(value, "lower")?, "lower")?;
    let upper = usize_array(field(value, "upper")?, "upper")?;
    GsbSpec::new(n, lower, upper).map_err(Error::Core)
}

fn symmetric_to_json(task: &SymmetricGsb) -> Json {
    Json::Obj(vec![
        ("n".into(), Json::Num(task.n() as f64)),
        ("m".into(), Json::Num(task.m() as f64)),
        ("l".into(), Json::Num(task.l() as f64)),
        ("u".into(), Json::Num(task.u() as f64)),
    ])
}

fn symmetric_from_json(value: &Json) -> Result<SymmetricGsb> {
    SymmetricGsb::new(
        usize_field(value, "n")?,
        usize_field(value, "m")?,
        usize_field(value, "l")?,
        usize_field(value, "u")?,
    )
    .map_err(Error::Core)
}

fn stats_to_json(stats: &SearchStats) -> Json {
    Json::Obj(vec![
        ("decisions".into(), Json::Num(stats.decisions as f64)),
        ("conflicts".into(), Json::Num(stats.conflicts as f64)),
        ("propagations".into(), Json::Num(stats.propagations as f64)),
        ("restarts".into(), Json::Num(stats.restarts as f64)),
        ("learned".into(), Json::Num(stats.learned as f64)),
        (
            "symmetric_images".into(),
            Json::Num(stats.symmetric_images as f64),
        ),
        ("deleted".into(), Json::Num(stats.deleted as f64)),
        ("warm_seeded".into(), Json::Num(stats.warm_seeded as f64)),
        ("local_steps".into(), Json::Num(stats.local_steps as f64)),
        (
            "local_restarts".into(),
            Json::Num(stats.local_restarts as f64),
        ),
        ("local_won".into(), Json::Bool(stats.local_won)),
        ("workers".into(), Json::Num(stats.workers as f64)),
    ])
}

fn stats_from_json(value: &Json) -> Result<SearchStats> {
    // The warm/local fields postdate stored verdict records, so they
    // are optional; keys of counters that have since been removed are
    // ignored.
    Ok(SearchStats {
        decisions: u64_field(value, "decisions")?,
        conflicts: u64_field(value, "conflicts")?,
        propagations: u64_field(value, "propagations")?,
        restarts: u64_field(value, "restarts")?,
        learned: u64_field(value, "learned")?,
        symmetric_images: u64_field(value, "symmetric_images")?,
        deleted: u64_field(value, "deleted")?,
        warm_seeded: opt_u64_field(value, "warm_seeded")?,
        local_steps: opt_u64_field(value, "local_steps")?,
        local_restarts: opt_u64_field(value, "local_restarts")?,
        local_won: matches!(value.get("local_won"), Some(Json::Bool(true))),
        workers: usize_field(value, "workers")?,
    })
}

impl Question {
    /// Serializes the question as a tagged JSON object.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let mut pairs = vec![("kind".to_string(), Json::Str(self.label().into()))];
        match self {
            Question::SolvableInRounds { rounds } | Question::Certificate { rounds } => {
                pairs.push(("rounds".into(), Json::Num(*rounds as f64)));
            }
            Question::Atlas { max_n } => pairs.push(("max_n".into(), Json::Num(*max_n as f64))),
            Question::Classify | Question::NoCommWitness => {}
        }
        Json::Obj(pairs)
    }

    /// Parses a question from its tagged JSON object.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Json`] on unknown kinds or missing fields.
    pub fn from_json_value(value: &Json) -> Result<Question> {
        match str_field(value, "kind")? {
            "classify" => Ok(Question::Classify),
            "solvable-in-rounds" => Ok(Question::SolvableInRounds {
                rounds: usize_field(value, "rounds")?,
            }),
            "no-comm-witness" => Ok(Question::NoCommWitness),
            "certificate" => Ok(Question::Certificate {
                rounds: usize_field(value, "rounds")?,
            }),
            "atlas" => Ok(Question::Atlas {
                max_n: usize_field(value, "max_n")?,
            }),
            other => Err(Error::Json {
                details: format!("unknown question kind '{other}'"),
            }),
        }
    }
}

impl crate::query::EngineOpts {
    /// Serializes the governance-relevant options (engine selection,
    /// deadline, budgets) as a JSON object. The CDCL tuning block and
    /// the verification toggles are runtime-only and not serialized.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        fn opt_u64(x: Option<u64>) -> Json {
            x.map_or(Json::Null, |v| Json::Num(v as f64))
        }
        Json::Obj(vec![
            ("search".into(), Json::Str(self.search.label().into())),
            (
                "deadline_ms".into(),
                self.deadline
                    .map_or(Json::Null, |d| Json::Num(duration_ms(d))),
            ),
            ("decision_budget".into(), opt_u64(self.decision_budget)),
            ("conflict_budget".into(), opt_u64(self.conflict_budget)),
            ("node_budget".into(), opt_u64(self.node_budget)),
            ("memory_budget".into(), opt_u64(self.memory_budget)),
            ("mode".into(), Json::Str(self.mode.label().into())),
            ("warm_start".into(), Json::Bool(self.warm_start)),
        ])
    }

    /// Parses options back from [`to_json_value`](Self::to_json_value)
    /// output. Missing budget fields stay `None`, so pre-governance
    /// `EngineOpts` JSON (which only carried `search`) still parses.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Json`] on unknown engine labels, non-numeric
    /// budget fields, or the removed `reference_budget` key (whose
    /// budget would otherwise be silently dropped).
    pub fn from_json_value(value: &Json) -> Result<Self> {
        fn opt_u64(value: &Json, key: &str) -> Result<Option<u64>> {
            match value.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(other) => {
                    let x = other.as_f64().ok_or_else(|| Error::Json {
                        details: format!("field '{key}' is not a number"),
                    })?;
                    checked_uint(x, key).map(Some)
                }
            }
        }
        if value.get("reference_budget").is_some() {
            return Err(Error::Json {
                details: "field 'reference_budget' was removed; use 'node_budget'".into(),
            });
        }
        let label = str_field(value, "search")?;
        let search = crate::query::SearchEngine::from_label(label).ok_or_else(|| Error::Json {
            details: format!("unknown search engine '{label}'"),
        })?;
        let deadline = match value.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(other) => {
                let ms = other.as_f64().ok_or_else(|| Error::Json {
                    details: "field 'deadline_ms' is not a number".into(),
                })?;
                Some(duration_from_ms(ms, "deadline_ms")?)
            }
        };
        // Pre-race `EngineOpts` JSON carries neither key: default to
        // plain CDCL with warm starts on, matching `EngineOpts::default`.
        let mode = match value.get("mode") {
            None | Some(Json::Null) => gsb_topology::SearchMode::default(),
            Some(other) => {
                let label = other.as_str().ok_or_else(|| Error::Json {
                    details: "field 'mode' is not a string".into(),
                })?;
                gsb_topology::SearchMode::from_label(label).ok_or_else(|| Error::Json {
                    details: format!("unknown search mode '{label}'"),
                })?
            }
        };
        let warm_start = !matches!(value.get("warm_start"), Some(Json::Bool(false)));
        Ok(crate::query::EngineOpts {
            search,
            deadline,
            decision_budget: opt_u64(value, "decision_budget")?,
            conflict_budget: opt_u64(value, "conflict_budget")?,
            node_budget: opt_u64(value, "node_budget")?,
            memory_budget: opt_u64(value, "memory_budget")?,
            mode,
            warm_start,
            ..Default::default()
        })
    }
}

impl Evidence {
    /// Serializes the evidence as a tagged JSON object.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let mut pairs = vec![("kind".to_string(), Json::Str(self.label().into()))];
        match self {
            Evidence::Infeasible {
                lower_sum,
                upper_sum,
            } => {
                pairs.push(("lower_sum".into(), Json::Num(*lower_sum as f64)));
                pairs.push(("upper_sum".into(), Json::Num(*upper_sum as f64)));
            }
            Evidence::NoCommunication { witness } => {
                pairs.push((
                    "witness".into(),
                    Json::Arr(witness.iter().map(|&v| Json::Num(v as f64)).collect()),
                ));
            }
            Evidence::NoCommImpossible => {}
            Evidence::DecisionMap(map) => {
                pairs.push(("n".into(), Json::Num(map.n() as f64)));
                pairs.push(("rounds".into(), Json::Num(map.rounds() as f64)));
                pairs.push((
                    "assignment".into(),
                    Json::Arr(
                        map.assignment()
                            .iter()
                            .map(|&v| Json::Num(v as f64))
                            .collect(),
                    ),
                ));
            }
            Evidence::RoundsUnsat { rounds, stats } => {
                pairs.push(("rounds".into(), Json::Num(*rounds as f64)));
                pairs.push(("search".into(), stats_to_json(stats)));
            }
            Evidence::Kernel {
                canonical,
                kernel_vectors,
                legal_outputs,
                binomial_gcd,
            } => {
                pairs.push((
                    "canonical".into(),
                    canonical.as_ref().map_or(Json::Null, symmetric_to_json),
                ));
                pairs.push((
                    "kernel_vectors".into(),
                    kernel_vectors.map_or(Json::Null, |k| Json::Num(k as f64)),
                ));
                pairs.push(("legal_outputs".into(), Json::Str(legal_outputs.to_string())));
                pairs.push((
                    "binomial_gcd".into(),
                    binomial_gcd.map_or(Json::Null, |g| Json::Str(g.to_string())),
                ));
            }
            Evidence::ElectionCertificate { rounds, facets } => {
                pairs.push(("rounds".into(), Json::Num(*rounds as f64)));
                pairs.push(("facets".into(), Json::Num(*facets as f64)));
            }
            Evidence::Indeterminate { reason, partial } => {
                pairs.push(("reason".into(), Json::Str(reason.label().into())));
                pairs.push((
                    "partial".into(),
                    partial.as_ref().map_or(Json::Null, stats_to_json),
                ));
            }
            Evidence::Atlas { max_n, rows } => {
                pairs.push(("max_n".into(), Json::Num(*max_n as f64)));
                pairs.push((
                    "rows".into(),
                    Json::Arr(
                        rows.iter()
                            .map(|row| {
                                Json::Obj(vec![
                                    ("task".into(), symmetric_to_json(&row.task)),
                                    (
                                        "solvability".into(),
                                        Json::Str(row.solvability.label().into()),
                                    ),
                                    ("justification".into(), Json::Str(row.justification.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
        }
        Json::Obj(pairs)
    }

    /// Parses evidence from its tagged JSON object. A decision map is
    /// its serialized `(n, rounds, assignment)`, read in the canonical
    /// class order of its `(n, rounds)`, so a parsed report is as
    /// replayable as a fresh one. Nothing about the map is checked
    /// here beyond a facet-ceiling bound on `(n, rounds)`: a
    /// wrong-length assignment parses, and [`Evidence::check`] refuses
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Json`] on malformed shapes and on decision maps
    /// over a complex past the guard's facet ceiling.
    pub fn from_json_value(value: &Json) -> Result<Evidence> {
        match str_field(value, "kind")? {
            "infeasible" => Ok(Evidence::Infeasible {
                lower_sum: usize_field(value, "lower_sum")?,
                upper_sum: usize_field(value, "upper_sum")?,
            }),
            "no-communication" => Ok(Evidence::NoCommunication {
                witness: usize_array(field(value, "witness")?, "witness")?,
            }),
            "no-comm-impossible" => Ok(Evidence::NoCommImpossible),
            "decision-map" => {
                let n = usize_field(value, "n")?;
                let rounds = usize_field(value, "rounds")?;
                rebuild_cost_guard(n, rounds)?;
                let assignment = usize_array(field(value, "assignment")?, "assignment")?;
                let map = DecisionMap::new(n, rounds, assignment);
                Ok(Evidence::DecisionMap(map))
            }
            "rounds-unsat" => Ok(Evidence::RoundsUnsat {
                rounds: usize_field(value, "rounds")?,
                stats: stats_from_json(field(value, "search")?)?,
            }),
            "kernel" => {
                let canonical = match field(value, "canonical")? {
                    Json::Null => None,
                    other => Some(symmetric_from_json(other)?),
                };
                let kernel_vectors = match field(value, "kernel_vectors")? {
                    Json::Null => None,
                    other => Some(other.as_f64().ok_or_else(|| Error::Json {
                        details: "field 'kernel_vectors' is not a number".into(),
                    })? as usize),
                };
                let binomial_gcd = match field(value, "binomial_gcd")? {
                    Json::Null => None,
                    Json::Str(s) => Some(s.parse().map_err(|e| Error::Json {
                        details: format!("field 'binomial_gcd' is not a u128 string: {e}"),
                    })?),
                    _ => {
                        return Err(Error::Json {
                            details: "field 'binomial_gcd' must be a string or null".into(),
                        })
                    }
                };
                Ok(Evidence::Kernel {
                    canonical,
                    kernel_vectors,
                    legal_outputs: u128_str_field(value, "legal_outputs")?,
                    binomial_gcd,
                })
            }
            "election-certificate" => Ok(Evidence::ElectionCertificate {
                rounds: usize_field(value, "rounds")?,
                facets: usize_field(value, "facets")?,
            }),
            "indeterminate" => {
                let label = str_field(value, "reason")?;
                let reason =
                    gsb_core::StopReason::from_label(label).ok_or_else(|| Error::Json {
                        details: format!("unknown stop reason '{label}'"),
                    })?;
                let partial = match field(value, "partial")? {
                    Json::Null => None,
                    other => Some(stats_from_json(other)?),
                };
                Ok(Evidence::Indeterminate { reason, partial })
            }
            "atlas" => {
                let rows = field(value, "rows")?
                    .as_arr()
                    .ok_or_else(|| Error::Json {
                        details: "field 'rows' is not an array".into(),
                    })?
                    .iter()
                    .map(|row| {
                        let label = str_field(row, "solvability")?;
                        Ok(AtlasCell {
                            task: symmetric_from_json(field(row, "task")?)?,
                            solvability: Solvability::from_label(label).ok_or_else(|| {
                                Error::Json {
                                    details: format!("unknown solvability '{label}'"),
                                }
                            })?,
                            justification: str_field(row, "justification")?.to_string(),
                        })
                    })
                    .collect::<Result<Vec<AtlasCell>>>()?;
                Ok(Evidence::Atlas {
                    max_n: usize_field(value, "max_n")?,
                    rows,
                })
            }
            other => Err(Error::Json {
                details: format!("unknown evidence kind '{other}'"),
            }),
        }
    }
}

impl crate::cache::CacheStats {
    /// Serializes the cache counters as a JSON object (the payload of
    /// the serve metrics endpoint and `gsb cache-stats`). Counters are
    /// emitted as plain numbers: they count in-process events and stay
    /// far below the 2^53 double-precision ceiling.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("hits".into(), Json::Num(self.hits as f64)),
            ("misses".into(), Json::Num(self.misses as f64)),
            (
                "classifications".into(),
                Json::Num(self.classifications as f64),
            ),
            ("witnesses".into(), Json::Num(self.witnesses as f64)),
            ("searches".into(), Json::Num(self.searches as f64)),
            ("systems".into(), Json::Num(self.systems as f64)),
            ("frontiers".into(), Json::Num(self.frontiers as f64)),
            ("extensions".into(), Json::Num(self.extensions as f64)),
            (
                "evidence_checks".into(),
                Json::Num(self.evidence_checks as f64),
            ),
            ("check_tables".into(), Json::Num(self.check_tables as f64)),
        ])
    }

    /// Parses counters back from [`to_json_value`](Self::to_json_value)
    /// output. `evidence_checks` and `check_tables` postdate the format
    /// and read as 0 when absent.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Json`] on missing or non-numeric fields.
    pub fn from_json_value(value: &Json) -> Result<Self> {
        Ok(crate::cache::CacheStats {
            hits: u64_field(value, "hits")?,
            misses: u64_field(value, "misses")?,
            classifications: usize_field(value, "classifications")?,
            witnesses: usize_field(value, "witnesses")?,
            searches: usize_field(value, "searches")?,
            systems: usize_field(value, "systems")?,
            frontiers: usize_field(value, "frontiers")?,
            extensions: u64_field(value, "extensions")?,
            evidence_checks: opt_u64_field(value, "evidence_checks")?,
            check_tables: opt_u64_field(value, "check_tables")? as usize,
        })
    }
}

impl Verdict {
    /// Serializes the verdict as a JSON value.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            (
                "solvability".into(),
                self.solvability
                    .map_or(Json::Null, |s| Json::Str(s.label().into())),
            ),
            ("evidence".into(), self.evidence.to_json_value()),
            (
                "provenance".into(),
                Json::Obj(vec![
                    ("question".into(), self.provenance.question.to_json_value()),
                    (
                        "spec".into(),
                        self.provenance
                            .spec
                            .as_ref()
                            .map_or(Json::Null, spec_to_json),
                    ),
                    (
                        "engines".into(),
                        Json::Arr(
                            self.provenance
                                .engines
                                .iter()
                                .map(|e| Json::Str(e.clone()))
                                .collect(),
                        ),
                    ),
                    (
                        "justification".into(),
                        Json::Str(self.provenance.justification.clone()),
                    ),
                    ("cache_hit".into(), Json::Bool(self.provenance.cache_hit)),
                ]),
            ),
            (
                "stats".into(),
                Json::Obj(vec![
                    ("wall_ms".into(), Json::Num(duration_ms(self.stats.wall))),
                    (
                        "evidence_checked".into(),
                        Json::Bool(self.stats.evidence_checked),
                    ),
                    (
                        "simulated_runs".into(),
                        Json::Num(self.stats.simulated_runs as f64),
                    ),
                    (
                        "search".into(),
                        self.stats.search.as_ref().map_or(Json::Null, stats_to_json),
                    ),
                ]),
            ),
        ])
    }

    /// Renders the verdict as a pretty-printed JSON report (the format
    /// the `gsb` CLI emits under `--json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Parses a verdict back from [`Verdict::to_json`] output. The
    /// result is fully usable: its evidence can be re-checked with
    /// [`Verdict::check`](crate::Verdict::check).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Json`] on malformed input.
    pub fn from_json(text: &str) -> Result<Verdict> {
        Verdict::from_json_value(&Json::parse(text)?)
    }

    /// Rebuilds a verdict from an already-parsed JSON value — the inverse
    /// of [`Verdict::to_json_value`], for callers (the serve client and
    /// the verdict store) that hold the value inside a larger document.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Json`] on a malformed value.
    pub fn from_json_value(value: &Json) -> Result<Verdict> {
        let solvability = match field(value, "solvability")? {
            Json::Null => None,
            Json::Str(s) => Some(Solvability::from_label(s).ok_or_else(|| Error::Json {
                details: format!("unknown solvability '{s}'"),
            })?),
            _ => {
                return Err(Error::Json {
                    details: "field 'solvability' must be a string or null".into(),
                })
            }
        };
        let evidence = Evidence::from_json_value(field(value, "evidence")?)?;
        let prov = field(value, "provenance")?;
        let provenance = Provenance {
            question: Question::from_json_value(field(prov, "question")?)?,
            spec: match field(prov, "spec")? {
                Json::Null => None,
                other => Some(spec_from_json(other)?),
            },
            engines: field(prov, "engines")?
                .as_arr()
                .ok_or_else(|| Error::Json {
                    details: "field 'engines' is not an array".into(),
                })?
                .iter()
                .map(|e| {
                    e.as_str().map(str::to_string).ok_or_else(|| Error::Json {
                        details: "field 'engines' holds a non-string".into(),
                    })
                })
                .collect::<Result<Vec<String>>>()?,
            justification: str_field(prov, "justification")?.to_string(),
            cache_hit: bool_field(prov, "cache_hit")?,
        };
        let stats_value = field(value, "stats")?;
        let wall_ms = field(stats_value, "wall_ms")?
            .as_f64()
            .ok_or_else(|| Error::Json {
                details: "field 'wall_ms' is not a number".into(),
            })?;
        let stats = RunStats {
            wall: duration_from_ms(wall_ms, "wall_ms")?,
            evidence_checked: bool_field(stats_value, "evidence_checked")?,
            simulated_runs: usize_field(stats_value, "simulated_runs")?,
            search: match field(stats_value, "search")? {
                Json::Null => None,
                other => Some(stats_from_json(other)?),
            },
        };
        Ok(Verdict {
            solvability,
            evidence,
            provenance,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "42", "-3.5", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            assert_eq!(Json::parse(v.render().trim()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn durations_round_trip_through_rendered_milliseconds() {
        // A store line whose wall_ms digit was flipped into an exponent
        // ("2.4598…" → "2.459E…") loaded as 2.459 ms, which re-rendered
        // as 2.4589999999999996 after a parse: a served verdict that did
        // not round-trip byte-identically. Millisecond counts with at
        // most six decimals now re-render unchanged.
        for text in ["2.459", "0.000001", "1234.5", "4500000000000"] {
            let ms = Json::parse(text).unwrap().as_f64().unwrap();
            let d = duration_from_ms(ms, "wall_ms").unwrap();
            assert_eq!(Json::Num(duration_ms(d)).render_compact(), text);
        }
        let mut state = 1u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            for d in [
                Duration::from_nanos(state >> 24),
                Duration::from_nanos(2_459_000),
            ] {
                let text = Json::Num(duration_ms(d)).render_compact();
                let ms = Json::parse(&text).unwrap().as_f64().unwrap();
                assert_eq!(duration_from_ms(ms, "wall_ms").unwrap(), d, "{text}");
            }
        }
    }

    #[test]
    fn structures_round_trip() {
        let text = r#"{"a": [1, 2, {"b": "x\n\"y\"", "c": null}], "d": {}}"#;
        let v = Json::parse(text).unwrap();
        let again = Json::parse(&v.render()).unwrap();
        assert_eq!(v, again);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn unicode_survives() {
        // The justification strings are full of ⟨, ℓ, ⌈ …
        let v = Json::Str("⟨6, 3, 1, 4⟩-GSB: ℓ = 0 ∧ ⌈(2n−1)/m⌉ ≤ u".into());
        let again = Json::parse(v.render().trim()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn escapes_parse() {
        let v = Json::parse(r#""aA\t\\b""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\t\\b"));
    }

    #[test]
    fn parse_errors_carry_context() {
        for bad in ["{", "[1,", "\"x", "{\"a\" 1}", "tru", "1e", "[] []"] {
            let err = Json::parse(bad).unwrap_err();
            assert!(matches!(err, Error::Json { .. }), "{bad}");
        }
    }

    #[test]
    fn question_json_round_trips() {
        for q in [
            Question::Classify,
            Question::SolvableInRounds { rounds: 2 },
            Question::NoCommWitness,
            Question::Certificate { rounds: 1 },
            Question::Atlas { max_n: 5 },
        ] {
            let value = q.to_json_value();
            assert_eq!(Question::from_json_value(&value).unwrap(), q);
        }
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = GsbSpec::election(4).unwrap();
        assert_eq!(spec_from_json(&spec_to_json(&spec)).unwrap(), spec);
    }

    #[test]
    fn compact_rendering_is_one_line_and_parses_back() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": "x\n", "c": null}], "d": {}}"#).unwrap();
        let line = v.render_compact();
        assert!(!line.contains('\n'));
        assert!(!line.contains(": "));
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    #[test]
    fn nesting_bombs_are_rejected_not_overflowed() {
        for bomb in ["[".repeat(100_000), "{\"a\":".repeat(50_000)] {
            let err = Json::parse(&bomb).unwrap_err();
            assert!(err.to_string().contains("nesting"), "{err}");
        }
        // Deep-but-legal nesting still parses.
        let legal = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&legal).is_ok());
    }

    #[test]
    fn rebuild_guard_rejects_oversized_maps() {
        assert!(rebuild_cost_guard(3, 2).is_ok());
        assert!(rebuild_cost_guard(5, 2).is_ok());
        assert!(rebuild_cost_guard(0, 1).is_err());
        assert!(rebuild_cost_guard(6, 3).is_err());
        assert!(rebuild_cost_guard(12, 1).is_err());
        assert!(rebuild_cost_guard(4, 64).is_err());
        assert!(rebuild_cost_guard(1, 64).is_ok());
    }

    #[test]
    fn cache_stats_round_trip() {
        let stats = crate::cache::CacheStats {
            hits: 7,
            misses: 3,
            classifications: 2,
            witnesses: 1,
            searches: 4,
            systems: 2,
            frontiers: 1,
            extensions: 5,
            evidence_checks: 6,
            check_tables: 3,
        };
        let parsed = crate::cache::CacheStats::from_json_value(&stats.to_json_value()).unwrap();
        assert_eq!(parsed, stats);
    }

    #[test]
    fn cache_stats_without_evidence_checks_still_parse() {
        let old = Json::parse(
            r#"{"hits":7,"misses":3,"classifications":2,"witnesses":1,
                "searches":4,"systems":2,"frontiers":1,"extensions":5}"#,
        )
        .unwrap();
        let parsed = crate::cache::CacheStats::from_json_value(&old).unwrap();
        assert_eq!(parsed.evidence_checks, 0);
        assert_eq!(parsed.check_tables, 0);
        assert_eq!(parsed.extensions, 5);
    }
}
