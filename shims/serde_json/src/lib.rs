//! Offline stand-in for `serde_json`.
//!
//! Exposes the `to_string` / `to_string_pretty` surface the workspace
//! uses, delegating to the vendored `serde` facade's streaming writer (see
//! `shims/serde` for wire-format notes). The workspace reads JSON only
//! with `phpsafe_obs::json::parse`.

use std::fmt;

/// Serialization error. Writing into a `String` cannot fail, so no value
/// of this type exists; it keeps serde_json's `Result` signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {}

impl fmt::Display for Error {
    fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {}
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` as compact JSON.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::to_json(value, false))
}

/// Serializes `value` as pretty JSON (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(serde::to_json(value, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_and_option_bytes() {
        let v = vec!["a".to_string(), "b\"c".to_string()];
        assert_eq!(to_string(&v).unwrap(), "[\"a\",\"b\\\"c\"]");
        assert_eq!(to_string(&vec![Some(3u32), None]).unwrap(), "[3,null]");
        assert_eq!(
            to_string_pretty(&v).unwrap(),
            "[\n  \"a\",\n  \"b\\\"c\"\n]"
        );
    }
}
