//! The [`CodecError`] the ZAST decoder ([`crate::zast::decode`]) fails
//! with: a short or malformed buffer yields one, never a panic.

use std::fmt;

/// A decoding failure: what was malformed, and the byte offset it was
/// detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What was malformed.
    pub what: &'static str,
    /// Byte offset the problem was detected at.
    pub at: usize,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for CodecError {}
