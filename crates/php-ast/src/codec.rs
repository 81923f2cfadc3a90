//! Little-endian byte primitives shared by the on-disk codecs: the
//! [`Writer`] and bounds-checked [`Reader`] behind `phpsafe`'s
//! summary/depgraph codecs, plus the [`CodecError`] they and the ZAST
//! decoder ([`crate::zast::decode`]) fail with.
//!
//! A [`Reader`] never panics on untrusted input: every read is
//! bounds-checked and a short or malformed buffer yields a
//! [`CodecError`].

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

type Result<T> = std::result::Result<T, CodecError>;

// ------------------------------------------------------------------ writer

/// A little-endian byte writer (also used by `phpsafe`'s summary codec).
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

// ------------------------------------------------------------------ reader

/// A bounds-checked little-endian reader over untrusted bytes (also used
/// by `phpsafe`'s summary codec). Every method fails with a [`CodecError`]
/// instead of panicking.
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Reads from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, at: 0 }
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.at
    }

    /// Whether every byte has been consumed.
    pub fn is_at_end(&self) -> bool {
        self.at == self.bytes.len()
    }

    /// Bytes left to read — the tight bound for "declared count exceeds
    /// input" guards in embedded codecs.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn fail<T>(&self, what: &'static str) -> Result<T> {
        Err(CodecError { what, at: self.at })
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = match self.at.checked_add(n) {
            Some(e) => e,
            None => return self.fail("length overflow"),
        };
        match self.bytes.get(self.at..end) {
            Some(s) => {
                self.at = end;
                Ok(s)
            }
            None => self.fail("unexpected end of input"),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => self.fail("invalid bool"),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.fail("invalid UTF-8"),
        }
    }
}
