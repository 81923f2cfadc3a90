//! Offline stand-in for `serde`.
//!
//! The build container cannot reach crates.io, so this crate provides the
//! small write-only subset of serde the workspace uses: the `Serialize`
//! trait, a streaming JSON [`Serializer`], and impls for the std types
//! that appear in the serialized structs. The derive macro lives in
//! `shims/serde_derive` and generates code against exactly this API.
//! Strings are escaped by `phpsafe_obs::json::write_str`, the escaper
//! every JSON document of the workspace goes through; the workspace reads
//! JSON back only with `phpsafe_obs::json::parse`.
//!
//! Wire-format notes:
//! * scalars, strings, `Option`, `Vec`, structs and enums follow
//!   serde_json's layout;
//! * control characters other than `\n`, `\r` and `\t` are written as
//!   `\u00XX` (serde_json writes `\b` and `\f` for U+0008 and U+000C);
//! * sets serialize as arrays sorted by each element's serialized text.

use std::collections::BTreeSet;
use std::fmt::Write as _;

pub use serde_derive::Serialize;

/// Serialization: write `self` into the streaming JSON writer.
pub trait Serialize {
    fn serialize(&self, s: &mut Serializer);
}

// --------------------------------------------------------------- serializer

enum Frame {
    Obj { count: usize },
    Arr { count: usize },
}

/// Streaming JSON writer. Infallible: output goes to an owned `String`.
pub struct Serializer {
    out: String,
    pretty: bool,
    stack: Vec<Frame>,
    /// Set after `key()`: the next value completes the entry, no prefix.
    pending_key: bool,
}

impl Serializer {
    pub fn new(pretty: bool) -> Serializer {
        Serializer {
            out: String::new(),
            pretty,
            stack: Vec::new(),
            pending_key: false,
        }
    }

    pub fn finish(self) -> String {
        self.out
    }

    fn newline_indent(&mut self, depth: usize) {
        self.out.push('\n');
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    /// Comma/indent bookkeeping before a value is written.
    fn value_prefix(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        let pretty = self.pretty;
        let depth = self.stack.len();
        if let Some(Frame::Arr { count }) = self.stack.last_mut() {
            if *count > 0 {
                self.out.push(',');
            }
            *count += 1;
            if pretty {
                self.newline_indent(depth);
            }
        }
    }

    pub fn begin_obj(&mut self) {
        self.value_prefix();
        self.out.push('{');
        self.stack.push(Frame::Obj { count: 0 });
    }

    pub fn end_obj(&mut self) {
        let closed = self.stack.pop();
        if self.pretty && matches!(closed, Some(Frame::Obj { count }) if count > 0) {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.out.push('}');
    }

    pub fn begin_arr(&mut self) {
        self.value_prefix();
        self.out.push('[');
        self.stack.push(Frame::Arr { count: 0 });
    }

    pub fn end_arr(&mut self) {
        let closed = self.stack.pop();
        if self.pretty && matches!(closed, Some(Frame::Arr { count }) if count > 0) {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.out.push(']');
    }

    /// Writes an object key; the next write completes the entry.
    pub fn key(&mut self, name: &str) {
        let pretty = self.pretty;
        let depth = self.stack.len();
        if let Some(Frame::Obj { count }) = self.stack.last_mut() {
            if *count > 0 {
                self.out.push(',');
            }
            *count += 1;
            if pretty {
                self.newline_indent(depth);
            }
        }
        phpsafe_obs::json::write_str(&mut self.out, name);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.pending_key = true;
    }

    pub fn string(&mut self, v: &str) {
        self.value_prefix();
        phpsafe_obs::json::write_str(&mut self.out, v);
    }

    pub fn null(&mut self) {
        self.value_prefix();
        self.out.push_str("null");
    }

    pub fn boolean(&mut self, v: bool) {
        self.value_prefix();
        self.out.push_str(if v { "true" } else { "false" });
    }

    pub fn uint(&mut self, v: u64) {
        self.value_prefix();
        let _ = write!(self.out, "{v}");
    }
}

/// Serializes `value` into JSON text (compact or pretty, 2-space indent).
pub fn to_json<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    let mut s = Serializer::new(pretty);
    value.serialize(&mut s);
    s.finish()
}

// ------------------------------------------------------------- scalar impls

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, s: &mut Serializer) {
                s.uint(*self as u64);
            }
        }
    )*};
}

impl_uint!(u16, u32, u64, usize);

impl Serialize for bool {
    fn serialize(&self, s: &mut Serializer) {
        s.boolean(*self);
    }
}

impl Serialize for str {
    fn serialize(&self, s: &mut Serializer) {
        s.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, s: &mut Serializer) {
        s.string(self);
    }
}

// ---------------------------------------------------------- container impls

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, s: &mut Serializer) {
        (**self).serialize(s);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, s: &mut Serializer) {
        match self {
            Some(inner) => inner.serialize(s),
            None => s.null(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_arr();
        for item in self {
            item.serialize(s);
        }
        s.end_arr();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, s: &mut Serializer) {
        self.as_slice().serialize(s);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, s: &mut Serializer) {
        let mut items: Vec<(String, &T)> = self.iter().map(|t| (to_json(t, false), t)).collect();
        items.sort_by(|a, b| a.0.cmp(&b.0));
        s.begin_arr();
        for (_, item) in items {
            item.serialize(s);
        }
        s.end_arr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_object_layout() {
        let mut s = Serializer::new(true);
        s.begin_obj();
        s.key("a");
        s.uint(1);
        s.key("b");
        s.begin_arr();
        s.uint(2);
        s.uint(3);
        s.end_arr();
        s.end_obj();
        assert_eq!(
            s.finish(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    3\n  ]\n}"
        );
    }

    #[test]
    fn strings_and_sets_are_escaped_and_sorted_by_their_text() {
        let mut s = Serializer::new(false);
        s.string("a\"b\\c\nd\u{1}\u{8}e");
        assert_eq!(s.finish(), r#""a\"b\\c\nd\u0001\u0008e""#);
        // `a"` sorts after `a#` once escaped: by text, not by value.
        let set: BTreeSet<String> = ["a#", "a\"", "B"].map(String::from).into();
        assert_eq!(to_json(&set, false), r#"["B","a#","a\""]"#);
    }
}
