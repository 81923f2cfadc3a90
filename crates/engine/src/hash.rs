//! Content hashing for cache keys.
//!
//! The digests live in the shared `phpsafe-intern` crate so `core` can use
//! them — and the FNV `BuildHasher` — without depending on the engine.
//! This module re-exports them under their `phpsafe_engine::` paths.

pub use phpsafe_intern::{digest64, fnv1a_64, ContentKey};
