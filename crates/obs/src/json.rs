//! The workspace's one JSON codec: a [`Json`] value, its parser and its
//! emitter, and the string escaper [`write_str`] that every JSON document
//! goes through — analysis reports (via the `serde` shim's serializer),
//! metrics snapshots, wide events and daemon replies.
//!
//! Sized to what those documents need: objects, arrays, strings, numbers,
//! booleans, null — plus a [`Json::Raw`] emit-only variant that splices a
//! pre-rendered document into a response without re-parsing it, which is
//! how cached analysis reports stay byte-identical across requests. The
//! only JSON the system reads is daemon requests, so the parser is
//! hardened against hostile input: bounded nesting, linear-time strings
//! and strict `\u` escapes.

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
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
                    out.push(':');
                    v.emit_into(out);
                }
                out.push('}');
            }
            Json::Raw(doc) => out.push_str(doc),
        }
    }
}

/// Appends `s` to `out` as a JSON string literal. `"`, `\\`, `\n`, `\r`
/// and `\t` get their short escapes and every other control character
/// its `\u00XX` form. Runs of bytes that need no escape are copied whole;
/// every byte that does is ASCII, so each run ends on a char boundary.
pub fn write_str(out: &mut String, s: &str) {
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
                    let mut code = self.hex4(self.at + 1).ok_or("bad \\u escape")?;
                    self.at += 4;
                    // A high surrogate takes the low one escaped right after
                    // it; a surrogate without its pair decodes to U+FFFD.
                    if (0xD800..0xDC00).contains(&code) {
                        if let Some(lo) = self.low_surrogate() {
                            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                            self.at += 6;
                        }
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(format!("bad escape at byte {}", self.at)),
            }
            self.at += 1;
        }
    }

    /// The four hex digits at `at`, if all four are there.
    fn hex4(&self, at: usize) -> Option<u32> {
        let hex = self.bytes.get(at..at + 4)?;
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return None;
        }
        let hex = std::str::from_utf8(hex).expect("hex digits are ASCII");
        Some(u32::from_str_radix(hex, 16).expect("four hex digits"))
    }

    /// The low surrogate escaped right after the `\u` escape whose last
    /// digit is at the cursor, if one is.
    fn low_surrogate(&self) -> Option<u32> {
        if self.bytes.get(self.at + 1..self.at + 3)? != b"\\u" {
            return None;
        }
        self.hex4(self.at + 3)
            .filter(|lo| (0xDC00..=0xDFFF).contains(lo))
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
    fn surrogate_pairs_decode_to_one_char() {
        for (src, want) in [
            (r#""\ud83d\ude00""#, "😀"),
            (r#""\uD83D\uDE00!""#, "😀!"),
            (r#""\udbff\udfff""#, "\u{10ffff}"),
            // Unpaired halves each decode to U+FFFD; what follows them
            // decodes on its own.
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ude00\ud83d""#, "\u{fffd}\u{fffd}"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
            (r#""\ud83d\n""#, "\u{fffd}\n"),
            (r#""\ud83dx""#, "\u{fffd}x"),
        ] {
            assert_eq!(parse(src), Ok(Json::Str(want.into())), "src: {src}");
        }
        assert!(
            parse(r#""\ud83d\ude0""#).is_err(),
            "a short low half is no escape"
        );
    }

    /// Every Unicode scalar value survives [`write_str`] and [`parse`], and
    /// the surrogate-pair escape of every non-BMP one decodes to it.
    #[test]
    fn every_scalar_value_round_trips() {
        // Parses `[s0,s1,...]` and checks that entry `i` is `chars[i]`.
        let check = |mut doc: String, chars: &[char]| {
            doc.pop(); // the last comma
            doc.push(']');
            let back = parse(&doc).unwrap();
            let back = back.as_arr().unwrap();
            assert_eq!(back.len(), chars.len());
            for (c, got) in chars.iter().zip(back) {
                let mut buf = [0; 4];
                let want: &str = c.encode_utf8(&mut buf);
                assert_eq!(got.as_str(), Some(want), "U+{:04X}", *c as u32);
            }
        };
        let chars: Vec<char> = (0..=0x10FFFF).filter_map(char::from_u32).collect();
        let mut doc = String::from("[");
        for c in &chars {
            write_str(&mut doc, c.encode_utf8(&mut [0; 4]));
            doc.push(',');
        }
        check(doc, &chars);

        let non_bmp: Vec<char> = chars.into_iter().filter(|c| *c > '\u{ffff}').collect();
        let mut doc = String::from("[");
        for c in &non_bmp {
            let [hi, lo] = *c.encode_utf16(&mut [0; 2]) else {
                unreachable!("a non-BMP char is a surrogate pair")
            };
            let _ = write!(doc, "\"\\u{hi:04x}\\u{lo:04X}\",");
        }
        check(doc, &non_bmp);
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
