//! # phpsafe-intern
//!
//! Shared leaf crate for the two primitives the whole pipeline hashes with:
//!
//! - [`Symbol`]: a global string interner handing out `Copy` `u32` handles
//!   for PHP identifiers, variable names, classes, methods and properties.
//!   Interned once at lex/parse time, threaded end to end so the
//!   interpreter keys its taint environments by `u32` instead of
//!   heap-allocated `String`s.
//! - [`digest`]: [`digest64`], the content digest behind [`ContentKey`],
//!   the tool and declaration fingerprints and the disk cache's payload
//!   check — shared here so `core` and `engine` use one digest without a
//!   dep cycle.
//! - [`fnv`]: FNV-1a, with [`FnvBuildHasher`] to replace SipHash in
//!   hot-path maps.
//!
//! Depends only on `phpsafe-obs` (for `intern.*` counters) and the vendored
//! `serde` shim, so every other crate can sit on top of it.

pub mod digest;
pub mod fnv;
pub mod sym;

pub use digest::{digest64, ContentKey};
pub use fnv::{fnv1a_64, FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use sym::Symbol;
