//! A minimal JSON value, parser and emitter for the daemon protocol.
//!
//! Self-contained (this crate depends only on `phpsafe-obs`) and sized to
//! what the NDJSON protocol needs: objects, arrays, strings, numbers,
//! booleans, null — plus a [`Json::Raw`] emit-only variant that splices a
//! pre-rendered document into a response without re-parsing it, which is
//! how cached analysis reports stay byte-identical across requests.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emit.
    Obj(Vec<(String, Json)>),
    /// A pre-rendered JSON document, emitted verbatim. Never produced by
    /// the parser; the constructor is responsible for validity.
    Raw(String),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders to compact JSON (no added whitespace).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into(&mut out);
        out
    }

    fn emit_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => emit_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.emit_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    emit_str(k, out);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
            Json::Raw(doc) => out.push_str(doc),
        }
    }
}

/// Emits `s` as a JSON string literal. Runs of bytes that need no escape
/// are copied whole; every byte that does is ASCII, so each run ends on a
/// char boundary.
fn emit_str(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        if escaped.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escaped);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. Protocol requests nest
/// at most 4 levels; the bound keeps a hostile line from overflowing the
/// stack of the thread that parses it.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. The full input must be consumed (trailing
/// whitespace allowed).
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        text: input,
        bytes,
        at: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.at != bytes.len() {
        return Err(format!("trailing input at byte {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.at)),
        }
    }

    /// Parses one array or object one nesting level down.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.at
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    /// Parses a string literal in one pass: each run between escapes is
    /// copied whole. The input is a `&str`, and `"` and `\` are ASCII, so
    /// every run is valid UTF-8 that starts and ends on char boundaries.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.at..self.at + run]);
            self.at += run;
            if self.bytes[self.at] == b'"' {
                self.at += 1;
                return Ok(out);
            }
            self.at += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.at + 1..self.at + 5)
                        .ok_or("truncated \\u escape")?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return Err("bad \\u escape".into());
                    }
                    let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
                    let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                    // Surrogate pairs are out of scope for the protocol;
                    // map them to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    self.at += 4;
                }
                _ => return Err(format!("bad escape at byte {}", self.at)),
            }
            self.at += 1;
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("digits are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number `{text}`"))
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_protocol_shapes() {
        for src in [
            r#"{"cmd":"analyze","paths":["a","b"],"jobs":4}"#,
            r#"{"cmd":"status"}"#,
            r#"[1,2.5,-3,true,false,null,"x"]"#,
            r#"{"nested":{"arr":[{"k":"v"}]},"s":"q\"uo\\te\nnl"}"#,
            "{}",
            "[]",
            // Every escape class.
            r#"["\"","\\","\/","\b","\f","\n","\r","\t","\u0041","\u00e9","\u20ac","\ud800"]"#,
            // Multibyte UTF-8 right next to escapes, at both ends of a run.
            r#"{"é\n":"\"€\"","s":"日本\t語\\","e":"😀\u0001😀"}"#,
            // Raw control bytes are passed through as they came.
            "[\"a\u{1}b\u{1f}c\u{7f}\"]",
            "{\"tab\tkey\":\"cr\rlf\n\"}",
        ] {
            let v = parse(src).unwrap();
            let emitted = v.emit();
            assert_eq!(parse(&emitted).unwrap(), v, "src: {src}");
        }
    }

    #[test]
    fn rejects_garbage() {
        let deep_arr = "[".repeat(200_000);
        let deep_obj = "{\"a\":".repeat(200_000);
        for src in [
            "",
            "{",
            "[1,",
            "nul",
            "\"open",
            "{\"a\" 1}",
            "12 34",
            &deep_arr,
            &deep_obj,
        ] {
            assert!(parse(src).is_err(), "should reject: {:.40}", src);
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(
            parse(&deepest).is_ok(),
            "the nesting bound itself is accepted"
        );
    }

    #[test]
    fn raw_splices_verbatim() {
        let doc = Json::Obj(vec![(
            "report".into(),
            Json::Raw(r#"{"vulns":[1,2,3]}"#.into()),
        )]);
        assert_eq!(doc.emit(), r#"{"report":{"vulns":[1,2,3]}}"#);
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a":"x","n":3,"l":[1]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("n").and_then(Json::as_num), Some(3.0));
        assert_eq!(
            v.get("l").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn control_chars_escape() {
        for (raw, emitted) in [
            ("a\u{1}b", r#""a\u0001b""#),
            (
                "\u{0}\u{8}\u{b}\u{c}\u{1f}",
                r#""\u0000\u0008\u000b\u000c\u001f""#,
            ),
            ("\t\n\r\"\\/", r#""\t\n\r\"\\/""#),
            ("é\u{1}€\n😀", "\"é\\u0001€\\n😀\""),
            ("\u{7f}", "\"\u{7f}\""),
        ] {
            let s = Json::Str(raw.into()).emit();
            assert_eq!(s, emitted, "raw: {raw:?}");
            assert_eq!(parse(&s).unwrap(), Json::Str(raw.into()), "raw: {raw:?}");
        }
    }

    #[test]
    fn escapes_decode_to_their_chars() {
        let v = parse(r#"["\"\\\/\b\f\n\r\t","\u0041\u00e9\u20ac\ud800","é\"€\\😀"]"#).unwrap();
        let want = ["\"\\/\u{8}\u{c}\n\r\t", "Aé€\u{fffd}", "é\"€\\😀"];
        let got: Vec<&str> = v
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn string_errors_are_reported() {
        for src in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u+041""#,
            r#""\u00g1""#,
            r#""abc\"#,
            r#""\"#,
        ] {
            assert!(parse(src).is_err(), "should reject: {src}");
        }
    }
}
