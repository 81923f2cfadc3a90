//! Global string interner and the [`Symbol`] handle it hands out.
//!
//! Mirrors the rustc `Symbol` design at the scale this project needs: a
//! process-wide, append-only arena of unique strings, addressed by a dense
//! `u32` id. Interning a string that is already present is a single
//! FNV-hashed map probe; the returned [`Symbol`] is `Copy`, compares by id,
//! and resolves back to `&'static str` without allocating (the arena leaks
//! its strings — total leakage is bounded by the number of *distinct* names
//! in the analyzed source text, which the `intern.bytes` counter tracks).
//!
//! Determinism: ids are assigned in first-intern order, which varies when
//! files are lexed in parallel. Anything ordered for output therefore
//! compares **resolved strings**, not ids — that is why [`Ord`] on `Symbol`
//! is string order. Equality is id equality (the arena guarantees one id
//! per distinct string), so map lookups stay O(1) on a `u32`.

use crate::fnv::FnvHashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, RwLock};

/// An interned string: a `Copy` handle resolving to `&'static str`.
///
/// `Default` is the empty string. Hash/Eq are by id; `Ord` is by resolved
/// string so sorted output never depends on intern order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Symbol(u32);

struct Interner {
    /// string → id, for `intern` probes.
    lookup: Mutex<FnvHashMap<&'static str, u32>>,
    /// id → string, for `as_str`. Append-only.
    arena: RwLock<Vec<&'static str>>,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| {
        // Pre-seed id 0 with "" so `Symbol::default()` resolves.
        let mut lookup = FnvHashMap::default();
        lookup.insert("", 0u32);
        Interner {
            lookup: Mutex::new(lookup),
            arena: RwLock::new(vec![""]),
        }
    })
}

impl Symbol {
    /// The empty-string symbol (id 0), same as `Symbol::default()`.
    pub const EMPTY: Symbol = Symbol(0);

    /// Interns `s`, returning the existing id if it was seen before.
    pub fn intern(s: &str) -> Symbol {
        let int = interner();
        let mut lookup = int.lookup.lock().unwrap();
        if let Some(&id) = lookup.get(s) {
            phpsafe_obs::count("intern.hits", 1);
            return Symbol(id);
        }
        // New entry: leak one copy, register it under the lookup lock so id
        // assignment and arena order stay consistent.
        let owned: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let mut arena = int.arena.write().unwrap();
        let id = u32::try_from(arena.len()).expect("interner overflow");
        arena.push(owned);
        drop(arena);
        lookup.insert(owned, id);
        phpsafe_obs::count("intern.symbols", 1);
        phpsafe_obs::count("intern.bytes", owned.len() as u64);
        Symbol(id)
    }

    /// Resolves the symbol to its string. Never allocates.
    pub fn as_str(self) -> &'static str {
        interner().arena.read().unwrap()[self.0 as usize]
    }

    /// The dense id, for diagnostics.
    pub fn index(self) -> u32 {
        self.0
    }

    /// True if this is the empty string.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// ASCII-lowercased variant, interned. Already-lowercase strings (the
    /// common case for PHP code that calls functions as written) return
    /// `self` without touching the arena.
    pub fn to_lowercase(self) -> Symbol {
        let s = self.as_str();
        if s.bytes().any(|b| b.is_ascii_uppercase()) {
            Symbol::intern(&s.to_ascii_lowercase())
        } else {
            self
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Debug-print the resolved string (like `String`), not the id: ids
        // vary run to run under parallel lexing and would make test failure
        // output unreadable.
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Symbol {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Symbol> for str {
    fn eq(&self, other: &Symbol) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Symbol> for &str {
    fn eq(&self, other: &Symbol) -> bool {
        *self == other.as_str()
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> std::cmp::Ordering {
        // String order, not id order: intern order is a lexing accident.
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl serde::Serialize for Symbol {
    fn serialize(&self, s: &mut serde::Serializer) {
        s.string(self.as_str());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("foo_bar");
        let b = Symbol::intern("foo_bar");
        assert_eq!(a, b);
        assert_eq!(a.index(), b.index());
        assert_eq!(a.as_str(), "foo_bar");
    }

    #[test]
    fn distinct_strings_distinct_ids() {
        let a = Symbol::intern("alpha_x");
        let b = Symbol::intern("alpha_y");
        assert_ne!(a, b);
        assert_ne!(a.index(), b.index());
    }

    #[test]
    fn default_is_empty() {
        assert_eq!(Symbol::default(), Symbol::EMPTY);
        assert_eq!(Symbol::default().as_str(), "");
        assert!(Symbol::default().is_empty());
        assert_eq!(Symbol::intern(""), Symbol::EMPTY);
    }

    #[test]
    fn str_comparisons_work() {
        let s = Symbol::intern("$variable");
        assert_eq!(s, "$variable");
        assert_eq!("$variable", s);
        let owned = String::from("$variable");
        assert!(s == owned);
        assert_ne!(s, "$other");
    }

    #[test]
    fn ord_is_string_order_not_id_order() {
        // Intern in reverse alphabetical order; sort must still come out
        // alphabetical.
        let z = Symbol::intern("zzz_ord_test");
        let a = Symbol::intern("aaa_ord_test");
        let m = Symbol::intern("mmm_ord_test");
        let mut v = vec![z, m, a];
        v.sort();
        assert_eq!(v, vec![a, m, z]);
    }

    #[test]
    fn lowercase_fast_path_and_slow_path() {
        let lower = Symbol::intern("already_lower");
        assert_eq!(lower.to_lowercase(), lower);
        let mixed = Symbol::intern("MixedCase");
        assert_eq!(mixed.to_lowercase(), Symbol::intern("mixedcase"));
        assert_ne!(mixed.to_lowercase(), mixed);
    }

    #[test]
    fn display_and_debug_resolve() {
        let s = Symbol::intern("printMe");
        assert_eq!(format!("{s}"), "printMe");
        assert_eq!(format!("{s:?}"), "\"printMe\"");
    }

    #[test]
    fn serializes_as_its_string() {
        let s = Symbol::intern("serialized \"sym\"");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, r#""serialized \"sym\"""#);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..64)
                        .map(|i| Symbol::intern(&format!("concurrent_{i}")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "same strings must yield same symbols");
        }
        for (i, s) in results[0].iter().enumerate() {
            assert_eq!(s.as_str(), format!("concurrent_{i}"));
        }
    }
}
