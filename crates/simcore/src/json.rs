//! JSON documents: the workspace's one reader and one writer (the offline
//! build has no serde), and the envelope of every `results/BENCH_*.json`.
//!
//! The writer has one layout, the one fault-plan files have always had:
//! the top-level object puts one `"key": value` per line, indented two
//! spaces; a top-level member that is an array puts one element per line,
//! indented four spaces, and closes with `  ]` (`[\n  ]` when empty);
//! anything deeper is inline with `", "` and `": "` separators. A number
//! keeps the text it was written or parsed with, so integers and
//! fixed-precision floats come back byte for byte.
//!
//! ```
//! use dare_simcore::json::{self, Json};
//!
//! let doc = Json::obj([
//!     ("runs", Json::from(256u64)),
//!     ("wall_secs", Json::fixed(0.3414, 3)),
//!     ("legs", Json::Arr(vec![Json::obj([("factor", Json::float(2.5))])])),
//! ]);
//! let text = doc.render();
//! assert_eq!(
//!     text,
//!     "{\n  \"runs\": 256,\n  \"wall_secs\": 0.341,\n  \"legs\": [\n    {\"factor\": 2.5}\n  ]\n}\n"
//! );
//! assert_eq!(json::parse(&text).unwrap(), doc);
//! ```

use std::path::Path;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, as its written text (integer-ness is checked by the
    /// accessors).
    Num(String),
    /// String literal.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, in source key order.
    Obj(Vec<(String, Json)>),
}

macro_rules! from {
    ($($t:ty: $v:ident => $json:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $json
            }
        }
    )*};
}

from! {
    u32: v => Json::Num(v.to_string());
    u64: v => Json::Num(v.to_string());
    usize: v => Json::Num(v.to_string());
    bool: v => Json::Bool(v);
    &str: v => Json::Str(v.to_string());
    String: v => Json::Str(v);
}

impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A float as `Display` writes it (`4.0` prints `4`); `null` when it
    /// is not finite, which JSON cannot spell.
    pub fn float(v: f64) -> Json {
        Self::finite(v, v.to_string())
    }

    /// A float with `decimals` digits after the point; `null` when it is
    /// not finite.
    pub fn fixed(v: f64, decimals: usize) -> Json {
        Self::finite(v, format!("{v:.decimals$}"))
    }

    fn finite(v: f64, text: String) -> Json {
        if v.is_finite() {
            Json::Num(text)
        } else {
            Json::Null
        }
    }

    /// The object's fields; `what` names the value in the error.
    pub fn as_obj(&self, what: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Obj(o) => Ok(o),
            _ => Err(format!("{what} must be a JSON object")),
        }
    }

    /// The value of `key` in an object.
    pub fn get(&self, key: &str) -> Result<&Json, String> {
        let mut fields = self.as_obj("document")?.iter();
        let found = fields.find(|(k, _)| k == key).map(|(_, v)| v);
        found.ok_or_else(|| format!("missing \"{key}\""))
    }

    /// The array's elements.
    pub fn as_arr(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(a) => Ok(a),
            _ => Err(format!("{what} must be a JSON array")),
        }
    }

    /// The string's contents.
    pub fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(format!("{what} must be a string")),
        }
    }

    /// The number as an `f64`.
    pub fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Json::Num(n) => n.parse().map_err(|_| format!("{what} is malformed")),
            _ => Err(format!("{what} must be a number")),
        }
    }

    /// The number as a non-negative integer of at most 2^53, the range
    /// an `f64` holds exactly.
    pub fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self.as_f64(what) {
            Ok(n) if n.fract() == 0.0 && n >= 0.0 && n <= 2f64.powi(53) => Ok(n as u64),
            _ => Err(format!("{what} must be a non-negative integer")),
        }
    }

    /// The number as a `u32`.
    pub fn as_u32(&self, what: &str) -> Result<u32, String> {
        u32::try_from(self.as_u64(what)?).map_err(|_| format!("{what} must fit in 32 bits"))
    }

    /// The value as a document in the module's layout, ending with a
    /// newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Write the value at nesting `depth` (0 for the document).
    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return push_quoted(out, s),
            Json::Arr(a) => ('[', ']', a.iter().map(|v| (None, v)).collect()),
            Json::Obj(o) => ('{', '}', o.iter().map(|(k, v)| (Some(&**k), v)).collect()),
        };
        // The document's object and its array members: one item a line.
        let lines = depth == usize::from(open == '[');
        out.push(open);
        for (i, (key, val)) in items.into_iter().enumerate() {
            if lines {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push_str(", ");
            }
            if let Some(key) = key {
                push_quoted(out, key);
                out.push_str(": ");
            }
            val.write(out, depth + 1);
        }
        if lines {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Schema tag of every `results/BENCH_*.json` report.
pub const BENCH_SCHEMA: &str = "dare-bench-v1";

/// Render a bench report: `schema`, `bench` (the name in
/// `BENCH_<bench>.json`), `command` (the command that regenerates the
/// file) and `build` first, then the bench's own keys. `build` is always
/// `"release"`: [`write_bench_report`] writes nothing else.
pub fn bench_report<K: Into<String>>(
    bench: &str,
    command: &str,
    body: impl IntoIterator<Item = (K, Json)>,
) -> String {
    let envelope = [
        ("schema", BENCH_SCHEMA),
        ("bench", bench),
        ("command", command),
        ("build", "release"),
    ];
    let envelope = envelope.map(|(k, v)| (k.to_string(), Json::from(v)));
    let body = body.into_iter().map(|(k, v)| (k.into(), v));
    Json::Obj(envelope.into_iter().chain(body).collect()).render()
}

/// Write a rendered bench report to `path`. A debug build is refused and
/// leaves no file: its wall times are not the release program's, and
/// with the full-scan invariant oracle compiled in they run several
/// times slower.
pub fn write_bench_report(path: impl AsRef<Path>, report: &str) -> Result<(), String> {
    let path = path.as_ref();
    if cfg!(debug_assertions) {
        return Err(format!(
            "refusing to write {}: a debug build does not time the release program; \
             build with --release",
            path.display()
        ));
    }
    std::fs::write(path, report).map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Parse a complete JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != text.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

/// A cursor over the text; `i` is always at a char boundary.
struct Parser<'a> {
    text: &'a str,
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("invalid JSON at byte {}: {msg}", self.i)
    }

    fn rest(&self) -> &'a str {
        &self.text[self.i..]
    }

    fn skip_ws(&mut self) {
        let rest = self.rest().trim_start_matches([' ', '\t', '\n', '\r']);
        self.i = self.text.len() - rest.len();
    }

    fn peek(&self) -> Option<u8> {
        self.rest().bytes().next()
    }

    /// Step over `token`, which must come next.
    fn token(&mut self, token: &str) -> Result<(), String> {
        if !self.rest().starts_with(token) {
            return Err(self.err(&format!("expected {token:?}")));
        }
        self.i += token.len();
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.seq("}", Self::member).and_then(|o| self.unique(o)),
            Some(b'[') => self.seq("]", Self::value).map(Json::Arr),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.token("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.token("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.token("null").map(|()| Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn member(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.skip_ws();
        self.token(":")?;
        self.skip_ws();
        Ok((key, self.value()?))
    }

    fn unique(&self, fields: Vec<(String, Json)>) -> Result<Json, String> {
        for (i, (key, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(k, _)| k == key) {
                return Err(self.err(&format!("duplicate key \"{key}\"")));
            }
        }
        Ok(Json::Obj(fields))
    }

    /// The items of the array or object opening here, up to `close`.
    fn seq<T>(
        &mut self,
        close: &str,
        item: fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        self.skip_ws();
        let mut out = Vec::new();
        if !self.rest().starts_with(close) {
            loop {
                out.push(item(self)?);
                self.skip_ws();
                if self.peek() != Some(b',') {
                    break;
                }
                self.i += 1;
                self.skip_ws();
            }
        }
        self.token(close)?;
        Ok(out)
    }

    fn string(&mut self) -> Result<String, String> {
        self.token("\"")?;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let end = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&rest[..end]);
            self.i += end + 1;
            if rest.as_bytes()[end] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.i += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'u' => {
                    let hex = self.text.get(self.i..self.i + 4);
                    let hex = hex.filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()));
                    let code = hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?));
                    self.i += 4;
                    code.ok_or_else(|| self.err("unsupported \\u escape"))?
                }
                _ => return Err(self.err("unsupported string escape")),
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let rest = self.rest();
        let len = rest
            .find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))
            .unwrap_or(rest.len());
        let text = &rest[..len];
        if text.parse::<f64>().is_err() {
            return Err(self.err(&format!("malformed number {text:?}")));
        }
        self.i += len;
        Ok(Json::Num(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_and_numbers_round_trip() {
        let xs = [1u64, 2].map(Json::from).into_iter().collect();
        let doc = Json::obj([
            ("empty", Json::Arr(vec![])),
            ("rows", Json::Arr(vec![Json::obj([("xs", xs)]), Json::Null])),
            (
                "nested",
                Json::obj([("b", true.into()), ("c", Json::Obj(vec![]))]),
            ),
            ("f", Json::float(4.0)),
            ("g", Json::fixed(100.0, 6)),
            ("nan", Json::fixed(f64::NAN, 3)),
        ]);
        let text = "{\n  \"empty\": [\n  ],\n  \"rows\": [\n    {\"xs\": [1, 2]},\n    null\n  ],\n  \
                    \"nested\": {\"b\": true, \"c\": {}},\n  \"f\": 4,\n  \"g\": 100.000000,\n  \"nan\": null\n}\n";
        assert_eq!(doc.render(), text);
        assert_eq!(parse(text).unwrap(), doc);
        assert_eq!(Json::Obj(vec![]).render(), "{\n}\n");
        let v = parse("{\"z\": 1e3, \"y\": -0}").unwrap();
        assert_eq!(v.get("z").unwrap().as_u64("z"), Ok(1000));
        assert_eq!(v.get("y").unwrap().as_f64("y"), Ok(0.0));
        assert!(v.get("w").unwrap_err().contains("missing \"w\""));
    }

    #[test]
    fn integers_are_bounded_by_2_pow_53() {
        let n = |t: &str| parse(t).unwrap();
        assert_eq!(n("9007199254740992").as_u64("n"), Ok(1 << 53));
        for bad in ["9007199254740994", "-1", "1.5", "\"7\""] {
            assert!(n(bad).as_u64("n").unwrap_err().contains("integer"), "{bad}");
        }
        assert!(n("4294967296").as_u32("n").unwrap_err().contains("32 bits"));
    }

    #[test]
    fn strings_round_trip_through_escapes() {
        let v = Json::from("q \" s \\ n \n t \t r \r bell \u{7} snow \u{2603}");
        let text = v.render();
        assert_eq!(
            text,
            "\"q \\\" s \\\\ n \\n t \\t r \\r bell \\u0007 snow \u{2603}\"\n"
        );
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse("\"\\u2603\\/\"").unwrap(), Json::from("\u{2603}/"));
    }

    #[test]
    fn malformed_documents_are_rejected_with_an_offset() {
        for bad in [
            "\"\\ud800\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\q\"",
            "\"open",
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1, \"a\": 2}",
            "tru",
            "1.2.3",
            "{} x",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.starts_with("invalid JSON at byte"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn bench_report_puts_the_envelope_first() {
        let text = bench_report("unit", "cargo bench", [("runs", Json::from(3u32))]);
        assert_eq!(
            text,
            "{\n  \"schema\": \"dare-bench-v1\",\n  \"bench\": \"unit\",\n  \
             \"command\": \"cargo bench\",\n  \"build\": \"release\",\n  \"runs\": 3\n}\n"
        );
    }
}
