//! Lints a Prometheus text exposition file — or, in `--trace` mode, a
//! Chrome Trace Event Format JSON export.
//!
//! CI observability smoke: `bench_stream --serve-text --trace-json
//! trace.json > metrics.prom` followed by `prom_lint metrics.prom
//! herqles_cycle_latency_ns …` proves the telemetry registry's export both
//! *parses* as the text format and *contains* the metric families the
//! dashboards expect — under every kernel-dispatch arm the workflow runs —
//! and `prom_lint --trace trace.json --min-spans 100` does the same for the
//! flight recorder.
//!
//! Usage:
//!
//! * `prom_lint PATH [REQUIRED_FAMILY…]` — Prometheus text mode;
//! * `prom_lint --trace PATH [--min-spans N]` — Chrome-trace mode.
//!
//! Prometheus checks, all hand-rolled (no regex, no deps):
//!
//! * every non-empty line is a `# HELP`, `# TYPE`, or a sample
//!   `name{labels} value` / `name value`;
//! * metric and label names are `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels without
//!   the colon), label values are double-quoted, sample values parse as
//!   finite `f64`;
//! * every `REQUIRED_FAMILY` argument has at least one sample whose name is
//!   the family or a `_sum`/`_count`-suffixed series of it.
//!
//! Chrome-trace checks (hand-rolled JSON walk, same zero-dependency rule):
//!
//! * the file parses as JSON and the root object carries a `traceEvents`
//!   array;
//! * every event is an object with a string `name`, a `ph` in
//!   `{"X", "I", "M"}`, non-negative integer `pid`/`tid`, and a numeric
//!   `ts`;
//! * every `"X"` (complete) event carries a numeric `dur ≥ 0`;
//! * within one `(pid, tid)` track the `"X"` events' `ts` values are
//!   monotone non-decreasing (the exporter sorts — a violation means a
//!   torn or mis-merged export);
//! * at least `--min-spans` (default 1) `"X"` spans exist.
//!
//! Exits 0 on success, 1 with a per-line diagnostic otherwise.

use std::collections::BTreeSet;
use std::process::ExitCode;

/// `true` for a legal metric-name character (`:` allowed per the exposition
/// format; first position must not be a digit — checked by the caller).
fn name_char(c: char, allow_colon: bool) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || (allow_colon && c == ':')
}

/// Parses a metric/label name prefix of `s`; returns (name, rest) or an
/// error string.
fn parse_name(s: &str, allow_colon: bool) -> Result<(&str, &str), String> {
    let end = s
        .char_indices()
        .find(|&(_, c)| !name_char(c, allow_colon))
        .map_or(s.len(), |(i, _)| i);
    if end == 0 {
        return Err(format!("expected a name at {s:?}"));
    }
    let name = &s[..end];
    if name.starts_with(|c: char| c.is_ascii_digit()) {
        return Err(format!("name {name:?} must not start with a digit"));
    }
    Ok((name, &s[end..]))
}

/// Validates one `{label="value",…}` block; returns the rest after `}`.
fn parse_labels(s: &str) -> Result<&str, String> {
    let mut rest = s.strip_prefix('{').expect("caller saw '{'");
    loop {
        let (_, after_name) = parse_name(rest, false)?;
        rest = after_name
            .strip_prefix("=\"")
            .ok_or_else(|| format!("expected =\"…\" after label name at {rest:?}"))?;
        // Label values may escape `\"`, `\\` and `\n`.
        let mut chars = rest.char_indices();
        let close = loop {
            match chars.next() {
                None => return Err("unterminated label value".to_string()),
                Some((_, '\\')) => {
                    chars.next(); // skip whatever is escaped
                }
                Some((i, '"')) => break i,
                Some(_) => {}
            }
        };
        rest = &rest[close + 1..];
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None => {
                return rest
                    .strip_prefix('}')
                    .ok_or_else(|| format!("expected , or }} at {rest:?}"))
            }
        }
    }
}

/// Validates one sample line; returns the metric name on success.
fn lint_sample(line: &str) -> Result<&str, String> {
    let (name, mut rest) = parse_name(line, true)?;
    if rest.starts_with('{') {
        rest = parse_labels(rest)?;
    }
    let value = rest.trim_start();
    if value == rest {
        return Err(format!("expected whitespace before the value at {rest:?}"));
    }
    let v: f64 = value
        .trim()
        .parse()
        .map_err(|_| format!("sample value {value:?} is not a number"))?;
    if !v.is_finite() {
        return Err(format!("sample value {value:?} is not finite"));
    }
    Ok(name)
}

/// Validates a `# HELP name text` / `# TYPE name type` comment line.
fn lint_comment(line: &str) -> Result<(), String> {
    let body = line.strip_prefix('#').expect("caller saw '#'").trim_start();
    for keyword in ["HELP", "TYPE"] {
        if let Some(rest) = body.strip_prefix(keyword) {
            let rest = rest.trim_start();
            let (_, after) = parse_name(rest, true)?;
            if !after.starts_with(' ') {
                return Err(format!("# {keyword} needs text after the metric name"));
            }
            return Ok(());
        }
    }
    // Other comments are legal in the format; the exporter never emits them,
    // so flag anything unexpected rather than silently passing it.
    Err(format!(
        "unexpected comment {line:?} (only # HELP / # TYPE)"
    ))
}

/// A parsed JSON value — just enough structure for the trace walk.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (first match; the exporter never duplicates keys).
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Minimal recursive-descent JSON parser (no deps, enough for the trace
/// format: no surrogate-pair decoding — `\uXXXX` escapes are validated and
/// replaced, not transcoded).
struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> JsonParser<'a> {
    fn new(s: &'a str) -> Self {
        JsonParser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON byte {}: {msg}", self.i)
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.s.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.i) {
            None => Err(self.err("unexpected end of input")),
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => self.parse_string().map(Json::Str),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(_) => self.parse_number(),
        }
    }

    fn parse_literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(&c) = self.s.get(self.i) {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.s.get(self.i) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0C),
                        Some(b'u') => {
                            // Validate 4 hex digits; substitute — the trace
                            // checks never compare escaped content.
                            for k in 1..=4 {
                                if !self.s.get(self.i + k).is_some_and(u8::is_ascii_hexdigit) {
                                    return Err(self.err("invalid \\u escape"));
                                }
                            }
                            self.i += 4;
                            out.push(b'?');
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.i += 1;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ] in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.eat(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or } in object")),
            }
        }
    }
}

/// Parses a complete JSON document (trailing garbage is an error).
fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser::new(text);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing data after the JSON document"));
    }
    Ok(v)
}

/// A non-negative integer field (Chrome trace pids/tids).
fn as_index(v: &Json) -> Option<u64> {
    let n = v.as_num()?;
    (n >= 0.0 && n.fract() == 0.0).then_some(n as u64)
}

/// Lints a Chrome Trace Event Format document. Returns the accepted span
/// count or the list of diagnostics.
fn lint_trace(text: &str, min_spans: usize) -> Result<usize, Vec<String>> {
    let root = match parse_json(text) {
        Ok(v) => v,
        Err(e) => return Err(vec![e]),
    };
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        return Err(vec![
            "root object must carry a traceEvents array".to_string()
        ]);
    };
    let mut errors = Vec::new();
    let mut spans = 0usize;
    // Last "X" timestamp per (pid, tid) track: the exporter sorts tracks,
    // so a decrease means a torn or mis-merged export.
    let mut last_ts: std::collections::BTreeMap<(u64, u64), f64> =
        std::collections::BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let mut fail = |msg: String| errors.push(format!("traceEvents[{i}]: {msg}"));
        if !matches!(ev, Json::Obj(_)) {
            fail("event is not an object".to_string());
            continue;
        }
        if ev.get("name").and_then(Json::as_str).is_none() {
            fail("missing string \"name\"".to_string());
        }
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or_default();
        if !matches!(ph, "X" | "I" | "M") {
            fail(format!("ph {ph:?} is not one of \"X\", \"I\", \"M\""));
            continue;
        }
        let pid = ev.get("pid").and_then(as_index);
        let tid = ev.get("tid").and_then(as_index);
        if pid.is_none() {
            fail("missing non-negative integer \"pid\"".to_string());
        }
        if tid.is_none() {
            fail("missing non-negative integer \"tid\"".to_string());
        }
        let ts = ev.get("ts").and_then(Json::as_num);
        if ts.is_none() {
            fail("missing numeric \"ts\"".to_string());
        }
        if ph == "X" {
            match ev.get("dur").and_then(Json::as_num) {
                Some(d) if d >= 0.0 => {}
                Some(_) => fail("\"X\" event has negative \"dur\"".to_string()),
                None => fail("\"X\" event missing numeric \"dur\"".to_string()),
            }
            if let (Some(pid), Some(tid), Some(ts)) = (pid, tid, ts) {
                let last = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
                if ts < *last {
                    fail(format!(
                        "track ({pid}, {tid}) timestamps regress: {ts} after {last}"
                    ));
                }
                *last = ts;
                spans += 1;
            }
        }
    }
    if spans < min_spans {
        errors.push(format!(
            "only {spans} \"X\" span(s) found, need at least {min_spans}"
        ));
    }
    if errors.is_empty() {
        Ok(spans)
    } else {
        Err(errors)
    }
}

/// `--trace` mode entry point.
fn trace_main(mut argv: impl Iterator<Item = String>) -> ExitCode {
    let Some(path) = argv.next() else {
        eprintln!("usage: prom_lint --trace PATH [--min-spans N]");
        return ExitCode::FAILURE;
    };
    let mut min_spans = 1usize;
    let rest: Vec<String> = argv.collect();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--min-spans" => {
                i += 1;
                min_spans = rest.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("prom_lint: --min-spans requires an integer");
                    std::process::exit(1);
                });
            }
            other => {
                eprintln!("prom_lint: unknown trace-mode argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("prom_lint: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match lint_trace(&text, min_spans) {
        Ok(spans) => {
            eprintln!("prom_lint: {path}: OK ({spans} spans)");
            ExitCode::SUCCESS
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("prom_lint: {path}: {e}");
            }
            eprintln!("prom_lint: {path}: {} error(s)", errors.len());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(path) = argv.next() else {
        eprintln!(
            "usage: prom_lint PATH [REQUIRED_FAMILY…] | prom_lint --trace PATH [--min-spans N]"
        );
        return ExitCode::FAILURE;
    };
    if path == "--trace" {
        return trace_main(argv);
    }
    let required: Vec<String> = argv.collect();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("prom_lint: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut families: BTreeSet<String> = BTreeSet::new();
    let mut errors = 0usize;
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let result = if line.starts_with('#') {
            lint_comment(line)
        } else {
            lint_sample(line).map(|name| {
                samples += 1;
                // A summary family owns its `_sum` / `_count` series.
                let family = name
                    .strip_suffix("_sum")
                    .or_else(|| name.strip_suffix("_count"))
                    .unwrap_or(name);
                families.insert(family.to_string());
                families.insert(name.to_string());
            })
        };
        if let Err(msg) = result {
            eprintln!("prom_lint: {path}:{}: {msg}", i + 1);
            errors += 1;
        }
    }
    if samples == 0 {
        eprintln!("prom_lint: {path}: no samples found");
        errors += 1;
    }
    for family in &required {
        if !families.contains(family) {
            eprintln!("prom_lint: {path}: required family {family:?} is missing");
            errors += 1;
        }
    }
    if errors > 0 {
        eprintln!("prom_lint: {path}: {errors} error(s)");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "prom_lint: {path}: OK ({samples} samples, {} families, {} required present)",
        families.len(),
        required.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_parse() {
        assert_eq!(lint_sample("m_total 3").unwrap(), "m_total");
        assert_eq!(
            lint_sample("m{engine=\"d3-f64\",quantile=\"0.5\"} 12.5").unwrap(),
            "m"
        );
        assert!(lint_sample("m{unterminated 3").is_err());
        assert!(lint_sample("m NaN").is_err());
        assert!(lint_sample("3m 1").is_err());
    }

    #[test]
    fn comments_parse() {
        assert!(lint_comment("# HELP m help text").is_ok());
        assert!(lint_comment("# TYPE m summary").is_ok());
        assert!(lint_comment("# random chatter").is_err());
    }

    #[test]
    fn escaped_label_values() {
        assert!(lint_sample("m{l=\"a\\\"b\"} 1").is_ok());
    }

    #[test]
    fn trace_mode_accepts_a_wellformed_export() {
        let trace = r#"{"displayTimeUnit":"ns","traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,
             "args":{"name":"d3-f64-t1"}},
            {"name":"cycle","ph":"X","pid":1,"tid":0,"ts":1.5,"dur":100.25,
             "args":{"arg":0}},
            {"name":"decode","ph":"X","pid":1,"tid":0,"ts":50,"dur":10},
            {"name":"task","ph":"X","pid":1,"tid":2,"ts":3,"dur":7},
            {"name":"alert_firing","ph":"I","pid":1,"tid":0,"ts":60,"s":"t"}
        ]}"#;
        assert_eq!(lint_trace(trace, 3), Ok(3));
        // min-spans floor is enforced.
        assert!(lint_trace(trace, 4).is_err());
    }

    #[test]
    fn trace_mode_rejects_malformed_events() {
        // Not JSON at all.
        assert!(lint_trace("nonsense", 0).is_err());
        // No traceEvents array.
        assert!(lint_trace(r#"{"foo": 1}"#, 0).is_err());
        // Unknown phase.
        let bad_ph = r#"{"traceEvents":[{"name":"x","ph":"B","pid":1,"tid":0,"ts":0}]}"#;
        assert!(lint_trace(bad_ph, 0).is_err());
        // "X" without dur.
        let no_dur = r#"{"traceEvents":[{"name":"x","ph":"X","pid":1,"tid":0,"ts":0}]}"#;
        assert!(lint_trace(no_dur, 0).is_err());
        // Fractional pid.
        let bad_pid = r#"{"traceEvents":[{"name":"x","ph":"X","pid":1.5,"tid":0,"ts":0,"dur":1}]}"#;
        assert!(lint_trace(bad_pid, 0).is_err());
        // Timestamps regress within one track.
        let regress = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":0,"ts":10,"dur":1},
            {"name":"b","ph":"X","pid":1,"tid":0,"ts":5,"dur":1}
        ]}"#;
        assert!(lint_trace(regress, 0).is_err());
        // ...but not across tracks.
        let across = r#"{"traceEvents":[
            {"name":"a","ph":"X","pid":1,"tid":0,"ts":10,"dur":1},
            {"name":"b","ph":"X","pid":1,"tid":1,"ts":5,"dur":1}
        ]}"#;
        assert_eq!(lint_trace(across, 0), Ok(2));
    }
}
