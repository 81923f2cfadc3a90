//! Binary (de)serialization of per-tool summary caches for the
//! persistent artifact store.
//!
//! One blob per tool: every [`SummaryKey`] → [`SharedSummary`] pair the
//! run accumulated, written through `phpsafe-engine`'s disk cache under
//! the `summary` namespace, keyed by the tool name and fingerprinted by
//! the tool's configuration (see `PhpSafe::fingerprint`) so any profile
//! or option change invalidates the blob wholesale.
//!
//! The codec reuses `php_ast::codec`'s bounds-checked [`Reader`] /
//! [`Writer`], so a truncated or garbled blob decodes to a `CodecError`
//! and the caller falls back to an empty cache — never a panic.

use crate::caching::{SharedSummary, SummaryKey};
use crate::taint::Taint;
use php_ast::codec::{CodecError, Reader, Writer};
use std::sync::Arc;
use taint_config::{TaintLabels, VulnClass};

/// Bumped on any change to the encoding below.
/// v2: per-class label bitsets replaced the two per-class source kinds.
const VERSION: u8 = 2;

// Taint encoding: most values are either untainted or carry the same
// label set in every class slot (a raw source that no class-specific
// sanitizer has touched yet), so those two shapes get short forms.
const TAINT_EMPTY: u8 = 0;
const TAINT_UNIFORM: u8 = 1;
const TAINT_PER_CLASS: u8 = 2;

fn enc_taint(w: &mut Writer, t: Taint) {
    if t.labels.iter().all(|l| l.is_empty()) {
        w.u8(TAINT_EMPTY);
    } else if t.labels.iter().all(|l| *l == t.labels[0]) {
        w.u8(TAINT_UNIFORM);
        w.u32(t.labels[0].0 as u32);
    } else {
        w.u8(TAINT_PER_CLASS);
        for l in &t.labels {
            w.u32(l.0 as u32);
        }
    }
    w.bool(t.oop);
}

fn dec_labels(r: &mut Reader) -> Result<TaintLabels, CodecError> {
    let bits = r.u32()?;
    if bits > u16::MAX as u32 {
        return Err(CodecError {
            what: "invalid taint label bits",
            at: r.offset(),
        });
    }
    Ok(TaintLabels(bits as u16))
}

fn dec_taint(r: &mut Reader) -> Result<Taint, CodecError> {
    let mut labels = [TaintLabels::EMPTY; VulnClass::COUNT];
    match r.u8()? {
        TAINT_EMPTY => {}
        TAINT_UNIFORM => {
            let l = dec_labels(r)?;
            labels = [l; VulnClass::COUNT];
        }
        TAINT_PER_CLASS => {
            for slot in &mut labels {
                *slot = dec_labels(r)?;
            }
        }
        _ => {
            return Err(CodecError {
                what: "invalid taint shape tag",
                at: r.offset(),
            })
        }
    }
    Ok(Taint {
        labels,
        oop: r.bool()?,
    })
}

/// Encodes a snapshot of one tool's summary cache.
pub(crate) fn encode_summaries(entries: &[(SummaryKey, Arc<SharedSummary>)]) -> Vec<u8> {
    // Sort for a deterministic blob: the cache map iterates in hash order.
    let mut ordered: Vec<&(SummaryKey, Arc<SharedSummary>)> = entries.iter().collect();
    ordered.sort_by_key(|(k, _)| (k.decl_fp, format!("{:?}", k.sig)));
    let mut w = Writer::new();
    w.u8(VERSION);
    w.u32(ordered.len() as u32);
    for (key, summary) in ordered {
        w.u64(key.decl_fp);
        w.u32(key.sig.len() as u32);
        for &(taint, sanitized) in &key.sig {
            enc_taint(&mut w, taint);
            enc_taint(&mut w, sanitized);
        }
        w.u64(summary.work);
        w.u32(summary.calls.len() as u32);
        for call in &summary.calls {
            w.str(call);
        }
    }
    w.into_bytes()
}

/// Decodes a blob previously produced by [`encode_summaries`].
pub(crate) fn decode_summaries(
    bytes: &[u8],
) -> Result<Vec<(SummaryKey, SharedSummary)>, CodecError> {
    let mut r = Reader::new(bytes);
    if r.u8()? != VERSION {
        return Err(CodecError {
            what: "unsupported summary codec version",
            at: 0,
        });
    }
    let count = r.u32()? as usize;
    if count > bytes.len() {
        return Err(CodecError {
            what: "summary count exceeds input",
            at: r.offset(),
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let decl_fp = r.u64()?;
        let n_sig = r.u32()? as usize;
        if n_sig > bytes.len() {
            return Err(CodecError {
                what: "signature length exceeds input",
                at: r.offset(),
            });
        }
        let mut sig = Vec::with_capacity(n_sig);
        for _ in 0..n_sig {
            let taint = dec_taint(&mut r)?;
            let sanitized = dec_taint(&mut r)?;
            sig.push((taint, sanitized));
        }
        let work = r.u64()?;
        let n_calls = r.u32()? as usize;
        if n_calls > bytes.len() {
            return Err(CodecError {
                what: "call list length exceeds input",
                at: r.offset(),
            });
        }
        let mut calls = Vec::with_capacity(n_calls);
        for _ in 0..n_calls {
            calls.push(r.str()?);
        }
        out.push((SummaryKey { decl_fp, sig }, SharedSummary { work, calls }));
    }
    if !r.is_at_end() {
        return Err(CodecError {
            what: "trailing bytes after summaries",
            at: r.offset(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(SummaryKey, Arc<SharedSummary>)> {
        use taint_config::SourceKind;
        // XSS carries a GET label, SQLi a DB label, other classes both.
        let tainted = Taint::from_oop_source(SourceKind::Get)
            .sanitize(&[VulnClass::Sqli])
            .0
            .join(
                Taint::from_oop_source(SourceKind::Database)
                    .sanitize(&[VulnClass::Xss])
                    .0,
            );
        vec![
            (
                SummaryKey {
                    decl_fp: 7,
                    sig: vec![(Taint::default(), tainted)],
                },
                Arc::new(SharedSummary {
                    work: 42,
                    calls: vec!["trim".into(), "strtolower".into()],
                }),
            ),
            (
                SummaryKey {
                    decl_fp: 9,
                    sig: vec![],
                },
                Arc::new(SharedSummary {
                    work: 1,
                    calls: vec![],
                }),
            ),
        ]
    }

    #[test]
    fn roundtrip_preserves_entries() {
        let entries = sample();
        let blob = encode_summaries(&entries);
        let back = decode_summaries(&blob).unwrap();
        assert_eq!(back.len(), entries.len());
        // The blob is sorted by key; compare as sets.
        for (key, summary) in &entries {
            let found = back.iter().find(|(k, _)| k == key).expect("key survives");
            assert_eq!(found.1.work, summary.work);
            assert_eq!(found.1.calls, summary.calls);
        }
    }

    #[test]
    fn blob_is_deterministic_regardless_of_entry_order() {
        let mut entries = sample();
        let a = encode_summaries(&entries);
        entries.reverse();
        let b = encode_summaries(&entries);
        assert_eq!(a, b);
    }

    #[test]
    fn truncations_fail_cleanly() {
        let blob = encode_summaries(&sample());
        for cut in 0..blob.len() {
            assert!(decode_summaries(&blob[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn byte_flips_never_panic() {
        let blob = encode_summaries(&sample());
        for at in 0..blob.len() {
            for flip in [0xffu8, 0x01, 0x80] {
                let mut bytes = blob.clone();
                bytes[at] ^= flip;
                // Rejected, or decoded into some other well-formed cache.
                let _ = decode_summaries(&bytes);
            }
        }
    }

    #[test]
    fn garbage_fails() {
        assert!(decode_summaries(b"").is_err());
        assert!(decode_summaries(b"\xff\xff\xff\xff").is_err());
    }
}
