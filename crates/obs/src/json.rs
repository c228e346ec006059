//! Dependency-free JSON encoding and a minimal parser.
//!
//! The workspace's tier-1 build must resolve fully offline, so this module
//! hand-rolls the small JSON surface the observability layer needs instead
//! of pulling in `serde`: an escaper, push-style object/array builders, a
//! recursive-descent parser (used to read manifests back and to validate
//! emitted artifacts in tests), and canonical encodings for [`IterStats`]
//! and [`NetStats`].
//!
//! Numbers are kept as their raw token text on the parse side so `u64`
//! values (seeds, byte counts) round-trip without `f64` precision loss.

use acorr_dsm::IterStats;
use acorr_sim::{MessageKind, NetStats};
use std::fmt::Write as _;

/// Escapes `s` for inclusion inside a JSON string literal (no surrounding
/// quotes are added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Push-style JSON object builder.
///
/// ```
/// use acorr_obs::json::Obj;
/// let mut o = Obj::new();
/// o.str("name", "sor").u64("seed", 7).bool("ok", true);
/// assert_eq!(o.finish(), r#"{"name":"sor","seed":7,"ok":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct Obj {
    buf: String,
    any: bool,
}

impl Obj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Obj {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        let _ = write!(self.buf, "\"{}\":", escape(key));
        self
    }

    /// Adds a string member.
    pub fn str(&mut self, key: &str, val: &str) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "\"{}\"", escape(val));
        self
    }

    /// Adds an unsigned integer member.
    pub fn u64(&mut self, key: &str, val: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{val}");
        self
    }

    /// Adds a floating-point member (rendered with enough digits to
    /// round-trip).
    pub fn f64(&mut self, key: &str, val: f64) -> &mut Self {
        self.key(key);
        if val.is_finite() {
            let _ = write!(self.buf, "{val}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean member.
    pub fn bool(&mut self, key: &str, val: bool) -> &mut Self {
        self.key(key);
        self.buf.push_str(if val { "true" } else { "false" });
        self
    }

    /// Adds a member whose value is already-rendered JSON.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(&mut self) -> String {
        let mut out = std::mem::take(&mut self.buf);
        out.push('}');
        out
    }
}

/// A parsed JSON value. Numbers keep their raw token text (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, members in document order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a member of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, when this is an unsigned integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The deepest array/object nesting [`parse`] accepts. The documents the
/// workspace writes (manifests, trace events, benchmark result lines) nest
/// about 4 deep; the cap stops a hostile document from overflowing the
/// stack of the recursive-descent parser.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Trailing non-whitespace, and arrays/objects
/// nested more than 128 deep, are errors.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!("nesting deeper than {MAX_DEPTH}")),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => parse_str(bytes, pos).map(Value::Str),
        Some(b't') => parse_lit(bytes, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false").map(|_| Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null").map(|_| Value::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("invalid number at byte {start}"));
    }
    Ok(Value::Num(raw.to_string()))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume the whole run of ordinary characters at once. The
                // delimiters are ASCII, so they can't occur inside a
                // multi-byte sequence, and the input arrived as a &str, so
                // the run is valid UTF-8.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let val = parse_value(bytes, pos, depth)?;
        members.push((key, val));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Canonical JSON encoding of [`NetStats`]: one member per
/// [`MessageKind`] (in `MessageKind::ALL` order) with message/byte and
/// retransmission counters.
pub fn net_stats_json(net: &NetStats) -> String {
    let mut obj = Obj::new();
    for kind in MessageKind::ALL {
        let mut inner = Obj::new();
        inner
            .u64("messages", net.messages(kind))
            .u64("bytes", net.bytes(kind))
            .u64("retrans_messages", net.retrans_messages(kind))
            .u64("retrans_bytes", net.retrans_bytes(kind));
        obj.raw(kind.label(), &inner.finish());
    }
    obj.finish()
}

/// Canonical JSON encoding of [`IterStats`]. Durations are nanoseconds.
/// This is also the preimage of the manifest's stats digest, so the member
/// set and order are part of the manifest schema.
pub fn iter_stats_json(stats: &IterStats) -> String {
    let mut obj = Obj::new();
    obj.u64("elapsed_ns", stats.elapsed.as_nanos())
        .u64("stall_ns", stats.stall.as_nanos())
        .u64("remote_misses", stats.remote_misses)
        .u64("tracking_faults", stats.tracking_faults)
        .u64("coherence_faults", stats.coherence_faults)
        .u64("twin_faults", stats.twin_faults)
        .u64("ownership_transfers", stats.ownership_transfers)
        .u64("diffs_created", stats.diffs_created)
        .u64("diff_bytes_created", stats.diff_bytes_created)
        .u64("barriers", stats.barriers)
        .u64("lock_acquires", stats.lock_acquires)
        .u64("remote_lock_acquires", stats.remote_lock_acquires)
        .u64("gc_runs", stats.gc_runs)
        .u64("gc_pages", stats.gc_pages)
        .u64("migrations", stats.migrations)
        .u64("retries", stats.retries)
        .u64("dup_messages", stats.dup_messages)
        .u64("dup_bytes", stats.dup_bytes)
        .u64("corrupt_detected", stats.corrupt_detected)
        .u64("partition_delays", stats.partition_delays)
        .u64("crashes", stats.crashes)
        .u64("pages_wiped", stats.pages_wiped)
        .raw("net", &net_stats_json(&stats.net));
    obj.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorr_sim::{forall, DetRng};

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("π"), "π");
    }

    #[test]
    fn builder_produces_valid_json() {
        let mut o = Obj::new();
        o.str("s", "x\"y")
            .u64("u", u64::MAX)
            .f64("f", 1.5)
            .bool("b", false)
            .raw("a", "[1,2]");
        let text = o.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("u").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("b").unwrap(), &Value::Bool(false));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parser_round_trips_structures() {
        let v = parse(r#" {"a": [1, -2.5e3, "x", null, true], "b": {"c": ""}} "#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x"));
        assert_eq!(arr[3], Value::Null);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some(""));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"\\q\"", "nan"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parser_caps_nesting_depth_instead_of_overflowing_the_stack() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // An unclosed run this long used to recurse once per bracket.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = parse(r#""a\u0041\n\t\"\\b π""#).unwrap();
        assert_eq!(v.as_str(), Some("aA\n\t\"\\b π"));
    }

    #[test]
    fn u64_precision_survives_round_trip() {
        let big = u64::MAX - 1;
        let text = format!("{{\"x\":{big}}}");
        assert_eq!(parse(&text).unwrap().get("x").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn json_edge_values_round_trip() {
        // The corners the artifact schema actually exercises: 64-bit
        // counters at saturation, negative zero (f64 sign bit must
        // survive), and deep nesting.
        let mut o = Obj::new();
        o.u64("max", u64::MAX)
            .f64("nz", -0.0)
            .raw("deep", "[[[[1]]]]");
        let v = parse(&o.finish()).unwrap();
        assert_eq!(v.get("max").unwrap().as_u64(), Some(u64::MAX));
        let nz = v.get("nz").unwrap().as_f64().unwrap();
        assert_eq!(nz.to_bits(), (-0.0f64).to_bits(), "sign bit lost");
        let deep = v.get("deep").unwrap();
        let leaf = &deep.as_arr().unwrap()[0].as_arr().unwrap()[0]
            .as_arr()
            .unwrap()[0];
        assert_eq!(leaf.as_arr().unwrap()[0].as_u64(), Some(1));
    }

    #[test]
    fn iter_stats_encoding_is_parseable_and_complete() {
        let mut s = IterStats::new();
        s.remote_misses = 42;
        s.net.record(MessageKind::PageFetch, 4096);
        let text = iter_stats_json(&s);
        let v = parse(&text).unwrap();
        assert_eq!(v.get("remote_misses").unwrap().as_u64(), Some(42));
        let page = v.get("net").unwrap().get("page").unwrap();
        assert_eq!(page.get("bytes").unwrap().as_u64(), Some(4096));
        assert_eq!(page.get("messages").unwrap().as_u64(), Some(1));
        // Every MessageKind appears in the net breakdown.
        for kind in MessageKind::ALL {
            assert!(v.get("net").unwrap().get(kind.label()).is_some());
        }
    }

    /// Any Unicode scalar value, weighted towards ASCII (quotes,
    /// backslashes, control characters) and the Basic Multilingual Plane.
    fn any_char(rng: &mut DetRng) -> char {
        let bound = [0x80, 0x1_0000, 0x11_0000][rng.index(3)];
        loop {
            if let Some(c) = char::from_u32(rng.next_below(bound) as u32) {
                return c;
            }
        }
    }

    /// A u64 of any magnitude, `u64::MAX` included.
    fn any_u64(rng: &mut DetRng) -> u64 {
        rng.next_u64() >> rng.index(64)
    }

    /// Any finite f64: bit patterns of every magnitude and sign
    /// (subnormals included), and a quarter of the time an edge value.
    fn any_finite_f64(rng: &mut DetRng) -> f64 {
        let edges = [0.0, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, f64::MIN];
        let f = f64::from_bits((rng.next_u64() >> rng.index(64)) | (rng.next_u64() & 1 << 63));
        if rng.chance(0.25) || !f.is_finite() {
            edges[rng.index(edges.len())]
        } else {
            f
        }
    }

    /// Any string survives escape → parse, including long ones and
    /// arbitrary Unicode (the JSONL sinks carry app and phase names
    /// straight from user-controlled `Program::name`).
    #[test]
    fn strings_round_trip() {
        let string = |rng: &mut DetRng| (0..rng.index(2048)).map(|_| any_char(rng)).collect();
        forall(256, 0, string, |s: &String| {
            let mut o = Obj::new();
            o.str("s", s);
            let v = parse(&o.finish()).unwrap();
            assert_eq!(v.get("s").unwrap().as_str(), Some(s.as_str()));
        });
    }

    /// Every u64 — the counters are 64-bit and the parser keeps raw
    /// number tokens precisely so `u64::MAX` must not lose precision
    /// through an f64 detour.
    #[test]
    fn u64_round_trips_exactly() {
        forall(256, 0, any_u64, |&u| {
            let mut o = Obj::new();
            o.u64("u", u);
            let v = parse(&o.finish()).unwrap();
            assert_eq!(v.get("u").unwrap().as_u64(), Some(u));
        });
    }

    /// Finite f64 members round-trip bit-for-bit (Rust's shortest
    /// display representation re-parses to the same bits, and -0.0
    /// renders as "-0", keeping the sign).
    #[test]
    fn finite_f64_round_trips_bitwise() {
        forall(256, 0, any_finite_f64, |&f| {
            let mut o = Obj::new();
            o.f64("f", f);
            let v = parse(&o.finish()).unwrap();
            let back = v.get("f").unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), f.to_bits());
        });
    }

    /// Nested arrays keep shape and element values.
    #[test]
    fn nested_arrays_round_trip() {
        let row = |rng: &mut DetRng| (0..rng.index(8)).map(|_| any_u64(rng)).collect();
        let rows = |rng: &mut DetRng| (0..rng.index(8)).map(|_| row(rng)).collect();
        forall(256, 0, rows, |rows: &Vec<Vec<u64>>| {
            let rendered = format!(
                "[{}]",
                rows.iter()
                    .map(|row| format!(
                        "[{}]",
                        row.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
                    ))
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let v = parse(&rendered).unwrap();
            let arr = v.as_arr().unwrap();
            assert_eq!(arr.len(), rows.len());
            for (parsed, row) in arr.iter().zip(rows) {
                let inner = parsed.as_arr().unwrap();
                assert_eq!(inner.len(), row.len());
                for (item, &want) in inner.iter().zip(row) {
                    assert_eq!(item.as_u64(), Some(want));
                }
            }
        });
    }
}
