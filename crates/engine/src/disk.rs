//! Persistent on-disk artifact cache.
//!
//! [`DiskCache`] is the durable tier behind the in-memory
//! [`ArtifactCache`](crate::ArtifactCache)s: artifacts (serialized ASTs
//! and rendered analysis outcomes) survive the process, so
//! a fresh daemon — or a batch CLI run pointed at the same `--cache-dir` —
//! warm-starts from a prior run instead of repaying the full parse/analyze
//! cost.
//!
//! The cache never trusts its own files. Every entry is wrapped in an
//! envelope carrying the stamp of the build that wrote it, the namespace,
//! the caller's configuration fingerprint, the content key and a
//! [`digest64`] of the payload. The stamp hashes every source file of the
//! workspace (see `build.rs`), so a build with any code change never reads
//! another build's entries. A [`DiskCache::load`] is one buffered read of
//! the entry file, and it re-validates every field:
//!
//! * a **stale** entry (stamp, namespace or fingerprint mismatch) is
//!   evicted — counted in `diskcache.evicted` with a log line;
//! * a **corrupt** entry (truncation, bad magic, key or digest mismatch)
//!   is removed — counted in `diskcache.corrupt` with a log line;
//!
//! and either way the load reports a miss, so the caller falls back to
//! re-parsing/re-analyzing. Decoding failures *above* the envelope (the
//! payload bytes don't deserialize) are reported back through
//! [`DiskCache::note_corrupt`] and handled the same way.
//! [`DiskCache::open`] sweeps the directory once, removing every entry
//! whose magic or stamp is not this build's; the load-time check stays,
//! because another process may write while this one runs.
//!
//! Stores are atomic: the entry is written to a temporary file in the same
//! directory and `rename`d into place, so concurrent readers and a crashed
//! writer can never observe a half-written entry.

use crate::hash::{digest64, ContentKey};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every cache entry.
const MAGIC: &[u8; 4] = b"PSC1";

// `BUILD_STAMP`: the hash of every workspace source file, written by
// `build.rs`. It follows the magic at a fixed offset, so an entry in any
// earlier layout reads as another build's (stale), never as corrupt.
include!(concat!(env!("OUT_DIR"), "/build_stamp.rs"));

/// Length of the head every entry opens with: the magic and the stamp.
const HEAD_LEN: usize = MAGIC.len() + 8;

/// Snapshot of a disk cache's operation counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DiskCounters {
    /// Loads that returned a validated payload.
    pub hits: u64,
    /// Loads that found no entry.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Entries dropped because the envelope or payload failed its digest
    /// or structural check.
    pub corrupt: u64,
    /// Entries dropped because another build wrote them, or because the
    /// namespace or configuration fingerprint no longer matches.
    pub evicted: u64,
    /// Envelope bytes read from disk (all successful reads, including
    /// entries later dropped as stale/corrupt).
    pub bytes_read: u64,
    /// Envelope bytes written to disk.
    pub bytes_written: u64,
    /// Stores that failed to land on disk (I/O errors degrade to a
    /// warning, never into the analysis result).
    pub store_failed: u64,
}

/// A persistent, content-addressed artifact store rooted at one directory.
///
/// Entries live under `<root>/<namespace>/<hash>-<len>.psc`; the namespace
/// separates artifact kinds (`"ast"`, `"outcome"`) that share a content
/// key space. All operations are infallible at the API level:
/// I/O errors degrade to misses (with a warning on stderr), never into the
/// analysis result.
pub struct DiskCache {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    evicted: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    store_failed: AtomicU64,
    tmp_seq: AtomicU64,
    /// Bytes on disk per namespace, seeded by the sweep at open and
    /// maintained on every store/evict; published as the
    /// `diskcache.bytes_on_disk.<ns>` gauge family — the bookkeeping a
    /// size-bounded eviction policy needs.
    ns_bytes: Mutex<HashMap<String, u64>>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `root`, and sweeps it:
    /// every entry whose magic or stamp is not this build's is removed and
    /// counted (`diskcache.evicted`, or `diskcache.corrupt` when it is too
    /// damaged to carry a stamp), and the surviving bytes seed the
    /// `diskcache.bytes_on_disk.<ns>` gauges.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let cache = DiskCache {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            store_failed: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
            ns_bytes: Mutex::new(HashMap::new()),
        };
        cache.sweep();
        Ok(cache)
    }

    /// Removes every entry another build wrote and records what is left
    /// per namespace. A namespace directory the sweep empties is removed
    /// too, so a dead namespace disappears with its entries.
    fn sweep(&self) {
        let Ok(dirs) = std::fs::read_dir(&self.root) else {
            return;
        };
        let mut swept = 0u64;
        let mut ns_bytes = HashMap::new();
        for ns_dir in dirs.flatten() {
            let path = ns_dir.path();
            let Ok(ns) = ns_dir.file_name().into_string() else {
                continue;
            };
            let Ok(files) = std::fs::read_dir(&path) else {
                continue;
            };
            let (mut total, mut removed) = (0u64, 0u64);
            for f in files.flatten() {
                let p = f.path();
                if p.extension().is_none_or(|e| e != "psc") {
                    continue;
                }
                // An entry unreadable now is left for a load to report.
                if let Ok(Err(fault)) = read_head(&p).map(|head| check_head(&head)) {
                    self.count_fault(&fault);
                    if std::fs::remove_file(&p).is_ok() {
                        removed += 1;
                        continue;
                    }
                }
                total += f.metadata().map(|m| m.len()).unwrap_or(0);
            }
            swept += removed;
            if total == 0 && removed > 0 && std::fs::remove_dir(&path).is_ok() {
                continue;
            }
            phpsafe_obs::gauge(&format!("diskcache.bytes_on_disk.{ns}"), total);
            ns_bytes.insert(ns, total);
        }
        if swept > 0 {
            eprintln!(
                "phpsafe: note: removed {swept} stale or damaged cache entries under {}",
                self.root.display()
            );
        }
        *self.ns_bytes.lock().unwrap() = ns_bytes;
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Current operation counters.
    pub fn counters(&self) -> DiskCounters {
        DiskCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            store_failed: self.store_failed.load(Ordering::Relaxed),
        }
    }

    /// Bytes currently on disk per namespace, sorted by namespace. Seeded
    /// by the sweep at open and maintained on store/evict; concurrent
    /// external writers can skew it until the next open.
    pub fn bytes_on_disk(&self) -> Vec<(String, u64)> {
        let map = self.ns_bytes.lock().unwrap();
        let mut out: Vec<(String, u64)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort();
        out
    }

    /// Applies a size delta to one namespace's on-disk accounting and
    /// republishes its gauge.
    fn adjust_ns_bytes(&self, ns: &str, grew: u64, shrank: u64) {
        let mut map = self.ns_bytes.lock().unwrap();
        let slot = map.entry(ns.to_owned()).or_insert(0);
        *slot = slot.saturating_add(grew).saturating_sub(shrank);
        phpsafe_obs::gauge(&format!("diskcache.bytes_on_disk.{ns}"), *slot);
    }

    fn entry_path(&self, ns: &str, key: ContentKey) -> PathBuf {
        self.root
            .join(ns)
            .join(format!("{:016x}-{:x}.psc", key.hash, key.len))
    }

    /// Loads and validates the entry for `(ns, key)`; `fingerprint` must
    /// match the one the entry was stored with (configuration changes
    /// silently invalidate everything written under the old fingerprint).
    /// Returns the payload bytes, or `None` on miss/stale/corrupt.
    pub fn load(&self, ns: &str, key: ContentKey, fingerprint: u64) -> Option<Vec<u8>> {
        let started = std::time::Instant::now();
        let path = self.entry_path(ns, key);
        let mut bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                phpsafe_obs::count("diskcache.misses", 1);
                return None;
            }
            Err(e) => {
                eprintln!(
                    "phpsafe: warning: disk cache read failed for {}: {e}",
                    path.display()
                );
                self.misses.fetch_add(1, Ordering::Relaxed);
                phpsafe_obs::count("diskcache.misses", 1);
                return None;
            }
        };
        self.bytes_read
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        phpsafe_obs::count("diskcache.bytes_read", bytes.len() as u64);
        // The payload runs to the end of the entry, so dropping the
        // envelope header in place leaves exactly the payload.
        let header = match validate_envelope(&bytes, ns, key, fingerprint) {
            Ok(payload) => bytes.len() - payload.len(),
            Err(reason) => {
                self.drop_entry(&path, reason);
                self.misses.fetch_add(1, Ordering::Relaxed);
                phpsafe_obs::count("diskcache.misses", 1);
                return None;
            }
        };
        bytes.drain(..header);
        self.hits.fetch_add(1, Ordering::Relaxed);
        phpsafe_obs::count("diskcache.hits", 1);
        phpsafe_obs::time("diskcache.load", started.elapsed());
        Some(bytes)
    }

    /// Atomically stores `payload` for `(ns, key, fingerprint)`. Returns
    /// whether the entry landed on disk; failures only warn — the caller's
    /// in-memory artifact is unaffected.
    pub fn store(&self, ns: &str, key: ContentKey, fingerprint: u64, payload: &[u8]) -> bool {
        let started = std::time::Instant::now();
        let path = self.entry_path(ns, key);
        let dir = path.parent().expect("entry path has a namespace parent");
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!(
                "phpsafe: warning: cannot create cache dir {}: {e}",
                dir.display()
            );
            self.store_failed.fetch_add(1, Ordering::Relaxed);
            phpsafe_obs::count("diskcache.store_failed", 1);
            return false;
        }
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{:016x}-{:x}.tmp.{}.{seq}",
            key.hash,
            key.len,
            std::process::id()
        ));
        let bytes = seal_envelope(ns, key, fingerprint, payload);
        // A successful rename replaces any prior entry at `path`; its size
        // must leave the namespace accounting as the new one enters.
        let replaced = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(&bytes))
            .and_then(|()| std::fs::rename(&tmp, &path));
        match written {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                self.bytes_written
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                phpsafe_obs::count("diskcache.stores", 1);
                phpsafe_obs::count("diskcache.bytes_written", bytes.len() as u64);
                phpsafe_obs::time("diskcache.store", started.elapsed());
                self.adjust_ns_bytes(ns, bytes.len() as u64, replaced);
                true
            }
            Err(e) => {
                eprintln!(
                    "phpsafe: warning: disk cache write failed for {}: {e}",
                    path.display()
                );
                let _ = std::fs::remove_file(&tmp);
                self.store_failed.fetch_add(1, Ordering::Relaxed);
                phpsafe_obs::count("diskcache.store_failed", 1);
                false
            }
        }
    }

    /// Reports that a payload [`load`](DiskCache::load) returned could not
    /// be decoded by the caller: the entry is counted corrupt and removed,
    /// exactly as if the envelope digest had failed.
    pub fn note_corrupt(&self, ns: &str, key: ContentKey) {
        // The hit the failed load counted stands; the decode failure is
        // what gets surfaced.
        self.drop_entry(
            &self.entry_path(ns, key),
            EntryFault::Corrupt("payload decode"),
        );
    }

    /// Counts a dropped entry as corrupt or evicted; returns the reason.
    fn count_fault(&self, fault: &EntryFault) -> &'static str {
        match *fault {
            EntryFault::Corrupt(why) => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                phpsafe_obs::count("diskcache.corrupt", 1);
                why
            }
            EntryFault::Stale(why) => {
                self.evicted.fetch_add(1, Ordering::Relaxed);
                phpsafe_obs::count("diskcache.evicted", 1);
                why
            }
        }
    }

    fn drop_entry(&self, path: &Path, fault: EntryFault) {
        let what = self.count_fault(&fault);
        eprintln!(
            "phpsafe: warning: dropping cache entry {} ({what}); falling back to re-analysis",
            path.display()
        );
        let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        if std::fs::remove_file(path).is_ok() && size > 0 {
            if let Some(ns) = path
                .parent()
                .and_then(|p| p.file_name())
                .and_then(|n| n.to_str())
            {
                self.adjust_ns_bytes(ns, 0, size);
            }
        }
    }
}

/// The first [`HEAD_LEN`] bytes of an entry file, or all of a shorter one.
fn read_head(path: &Path) -> io::Result<Vec<u8>> {
    let mut head = Vec::with_capacity(HEAD_LEN);
    std::fs::File::open(path)?
        .take(HEAD_LEN as u64)
        .read_to_end(&mut head)?;
    Ok(head)
}

/// Why an entry was dropped.
enum EntryFault {
    /// The bytes are damaged (truncation, bad magic, digest mismatch).
    Corrupt(&'static str),
    /// The bytes are intact but written by another build, or under a
    /// different namespace or configuration fingerprint.
    Stale(&'static str),
}

fn seal_envelope(ns: &str, key: ContentKey, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 64 + ns.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&BUILD_STAMP.to_le_bytes());
    out.push(ns.len() as u8);
    out.extend_from_slice(ns.as_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&key.hash.to_le_bytes());
    out.extend_from_slice(&key.len.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&digest64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A bounds-checked cursor over envelope bytes; running past the end is a
/// corruption, never a panic.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], EntryFault> {
        let end = self
            .at
            .checked_add(n)
            .ok_or(EntryFault::Corrupt("length overflow"))?;
        let slice = self
            .bytes
            .get(self.at..end)
            .ok_or(EntryFault::Corrupt("truncated envelope"))?;
        self.at = end;
        Ok(slice)
    }

    fn take_u64(&mut self) -> Result<u64, EntryFault> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Checks the head every entry opens with: the magic, then the stamp of
/// the build that wrote it.
fn check_head(bytes: &[u8]) -> Result<(), EntryFault> {
    let mut c = Cursor { bytes, at: 0 };
    if c.take(MAGIC.len())? != MAGIC {
        return Err(EntryFault::Corrupt("bad magic"));
    }
    if c.take_u64()? != BUILD_STAMP {
        return Err(EntryFault::Stale("written by another build"));
    }
    Ok(())
}

/// Checks every field of the envelope; returns the payload slice on
/// success and the reason the entry must be dropped otherwise.
fn validate_envelope<'a>(
    bytes: &'a [u8],
    ns: &str,
    key: ContentKey,
    fingerprint: u64,
) -> Result<&'a [u8], EntryFault> {
    use EntryFault::{Corrupt, Stale};
    check_head(bytes)?;
    let mut c = Cursor {
        bytes,
        at: HEAD_LEN,
    };
    let ns_len = c.take(1)?[0] as usize;
    if c.take(ns_len)? != ns.as_bytes() {
        return Err(Stale("namespace mismatch"));
    }
    if c.take_u64()? != fingerprint {
        return Err(Stale("configuration fingerprint mismatch"));
    }
    if c.take_u64()? != key.hash || c.take_u64()? != key.len {
        return Err(Corrupt("content key mismatch"));
    }
    let payload_len = c.take_u64()? as usize;
    let digest = c.take_u64()?;
    let payload = c.take(payload_len)?;
    if c.at != bytes.len() {
        return Err(Corrupt("trailing bytes"));
    }
    if digest64(payload) != digest {
        return Err(Corrupt("payload digest mismatch"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "phpsafe-diskcache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_hit() {
        let cache = DiskCache::open(tmp_root("roundtrip")).unwrap();
        let key = ContentKey::of(b"<?php echo 1;");
        assert_eq!(cache.load("ast", key, 7), None);
        assert!(cache.store("ast", key, 7, b"payload"));
        assert_eq!(cache.load("ast", key, 7).as_deref(), Some(&b"payload"[..]));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.stores), (1, 1, 1));
        assert_eq!((c.corrupt, c.evicted), (0, 0));
    }

    #[test]
    fn fingerprint_mismatch_evicts() {
        let cache = DiskCache::open(tmp_root("fp")).unwrap();
        let key = ContentKey::of(b"src");
        cache.store("outcome", key, 1, b"old-config");
        assert_eq!(cache.load("outcome", key, 2), None);
        assert_eq!(cache.counters().evicted, 1);
        // The stale entry is gone — a store under the new fingerprint wins.
        cache.store("outcome", key, 2, b"new-config");
        assert_eq!(
            cache.load("outcome", key, 2).as_deref(),
            Some(&b"new-config"[..])
        );
    }

    /// Entries dropped as corrupt or stale so far.
    fn dropped(cache: &DiskCache) -> u64 {
        let c = cache.counters();
        c.corrupt + c.evicted
    }

    #[test]
    fn truncated_entry_is_corrupt_and_removed() {
        let cache = DiskCache::open(tmp_root("trunc")).unwrap();
        let key = ContentKey::of(b"src2");
        cache.store("ast", key, 0, b"some serialized artifact");
        let path = cache.entry_path("ast", key);
        let full = std::fs::read(&path).unwrap();
        // Every proper prefix, the empty file included, fails closed as
        // corrupt: a cut never reads as a stale entry.
        for len in 0..full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            let before = cache.counters();
            assert_eq!(cache.load("ast", key, 0), None, "prefix of {len} bytes");
            assert_eq!(
                cache.counters().corrupt,
                before.corrupt + 1,
                "prefix of {len} bytes"
            );
            assert_eq!(dropped(&cache), before.corrupt + before.evicted + 1);
            assert!(!path.exists(), "corrupt entry must be removed");
            // Subsequent load is a clean miss, not another corruption.
            assert_eq!(cache.load("ast", key, 0), None);
            assert_eq!(dropped(&cache), before.corrupt + before.evicted + 1);
        }
    }

    #[test]
    fn flipped_payload_byte_fails_digest() {
        let cache = DiskCache::open(tmp_root("flip")).unwrap();
        let key = ContentKey::of(b"src3");
        let payload = b"payload bytes";
        cache.store("ast", key, 0, payload);
        let path = cache.entry_path("ast", key);
        let full = std::fs::read(&path).unwrap();
        // A flip anywhere, header included, fails closed; a flip inside
        // the payload fails its digest.
        for at in 0..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            let before = cache.counters();
            assert_eq!(cache.load("ast", key, 0), None, "flip at byte {at}");
            assert_eq!(
                dropped(&cache),
                before.corrupt + before.evicted + 1,
                "flip at byte {at}"
            );
            if at >= full.len() - payload.len() {
                assert_eq!(
                    cache.counters().corrupt,
                    before.corrupt + 1,
                    "flip at byte {at}"
                );
            }
        }
    }

    /// An entry in the layout of the build before the stamp: format word
    /// 2 and crate version `0.1.0` where the stamp now sits.
    fn parent_layout(ns: &str, key: ContentKey, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
        let mut sealed = MAGIC.to_vec();
        sealed.extend_from_slice(&2u32.to_le_bytes());
        sealed.push(5);
        sealed.extend_from_slice(b"0.1.0");
        sealed.push(ns.len() as u8);
        sealed.extend_from_slice(ns.as_bytes());
        sealed.extend_from_slice(&fingerprint.to_le_bytes());
        sealed.extend_from_slice(&key.hash.to_le_bytes());
        sealed.extend_from_slice(&key.len.to_le_bytes());
        sealed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        sealed.extend_from_slice(&digest64(payload).to_le_bytes());
        sealed.extend_from_slice(payload);
        sealed
    }

    #[test]
    fn parent_layout_entry_is_evicted_as_stale() {
        let cache = DiskCache::open(tmp_root("v2")).unwrap();
        let key = ContentKey::of(b"src7");
        let payload = b"written by the build before the stamp";
        let path = cache.entry_path("ast", key);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, parent_layout("ast", key, 0, payload)).unwrap();

        assert_eq!(cache.load("ast", key, 0), None);
        let c = cache.counters();
        assert_eq!((c.evicted, c.corrupt), (1, 0), "{c:?}");
        assert!(!path.exists(), "stale entry must be removed");
        // The slot is free for an entry in the current format.
        assert!(cache.store("ast", key, 0, payload));
        assert_eq!(cache.load("ast", key, 0).as_deref(), Some(&payload[..]));
    }

    #[test]
    fn open_sweeps_entries_another_build_wrote() {
        let root = tmp_root("sweep");
        let key = ContentKey::of(b"src8");
        // A dead namespace's blob, and an entry under a key no current
        // code computes, both in the parent's layout.
        for (ns, name) in [
            ("summary", "0123456789abcdef-7.psc"),
            ("ast", "fedcba9876543210-3.psc"),
        ] {
            std::fs::create_dir_all(root.join(ns)).unwrap();
            std::fs::write(root.join(ns).join(name), parent_layout(ns, key, 0, b"old")).unwrap();
        }
        let cache = DiskCache::open(&root).unwrap();
        let c = cache.counters();
        assert_eq!((c.evicted, c.corrupt), (2, 0), "{c:?}");
        assert!(cache.bytes_on_disk().is_empty());
        assert_eq!(
            std::fs::read_dir(&root).unwrap().count(),
            0,
            "root left empty"
        );

        // This build's entries survive the next sweep.
        assert!(cache.store("outcome", key, 0, b"current"));
        let reopened = DiskCache::open(&root).unwrap();
        assert_eq!(reopened.counters().evicted, 0);
        assert_eq!(reopened.bytes_on_disk(), cache.bytes_on_disk());
        assert_eq!(
            reopened.load("outcome", key, 0).as_deref(),
            Some(&b"current"[..])
        );
    }

    #[test]
    fn garbage_file_is_corrupt() {
        let cache = DiskCache::open(tmp_root("garbage")).unwrap();
        let key = ContentKey::of(b"src4");
        let path = cache.entry_path("ast", key);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"not an envelope at all").unwrap();
        assert_eq!(cache.load("ast", key, 0), None);
        assert_eq!(cache.counters().corrupt, 1);
    }

    #[test]
    fn note_corrupt_removes_entry() {
        let cache = DiskCache::open(tmp_root("note")).unwrap();
        let key = ContentKey::of(b"src5");
        cache.store("ast", key, 0, b"valid envelope, undecodable payload");
        cache.note_corrupt("ast", key);
        assert_eq!(cache.counters().corrupt, 1);
        assert_eq!(cache.load("ast", key, 0), None);
    }

    #[test]
    fn namespaces_are_separate() {
        let cache = DiskCache::open(tmp_root("ns")).unwrap();
        let key = ContentKey::of(b"shared");
        cache.store("ast", key, 0, b"ast bytes");
        assert_eq!(cache.load("outcome", key, 0), None);
        assert_eq!(
            cache.load("ast", key, 0).as_deref(),
            Some(&b"ast bytes"[..])
        );
    }

    #[test]
    fn bytes_on_disk_tracks_stores_evictions_and_reopen() {
        let root = tmp_root("nsbytes");
        let cache = DiskCache::open(&root).unwrap();
        assert!(cache.bytes_on_disk().is_empty());
        let k1 = ContentKey::of(b"one");
        let k2 = ContentKey::of(b"two");
        cache.store("ast", k1, 0, b"payload-1");
        cache.store("ast", k2, 0, b"payload-two");
        cache.store("outcome", k1, 0, b"s");
        let sizes: std::collections::HashMap<String, u64> =
            cache.bytes_on_disk().into_iter().collect();
        let ast_total = sizes["ast"];
        assert!(ast_total > 0 && sizes["outcome"] > 0);
        // Overwriting an entry swaps its size, not accumulates it.
        cache.store("ast", k1, 0, b"payload-1");
        assert_eq!(
            cache
                .bytes_on_disk()
                .into_iter()
                .collect::<std::collections::HashMap<_, _>>()["ast"],
            ast_total
        );
        // Accounting matches what a fresh open rediscovers by scanning.
        let reopened = DiskCache::open(&root).unwrap();
        assert_eq!(reopened.bytes_on_disk(), cache.bytes_on_disk());
        // Eviction subtracts the dropped entry.
        assert_eq!(cache.load("ast", k1, 9), None, "fingerprint mismatch");
        let after: std::collections::HashMap<String, u64> =
            cache.bytes_on_disk().into_iter().collect();
        assert!(after["ast"] < ast_total);
        assert_eq!(
            after["ast"],
            DiskCache::open(&root).unwrap().bytes_on_disk()[0].1
        );
    }

    #[test]
    fn bytes_on_disk_publishes_gauges() {
        let reg = phpsafe_obs::global();
        phpsafe_obs::set_enabled(true);
        let cache = DiskCache::open(tmp_root("nsgauge")).unwrap();
        cache.store("outcome", ContentKey::of(b"g"), 0, b"gauged");
        phpsafe_obs::set_enabled(false);
        let snap = reg.snapshot();
        let level = snap.gauge("diskcache.bytes_on_disk.outcome");
        assert!(level > 0, "store must publish the namespace gauge");
    }

    #[test]
    fn store_leaves_no_temp_files() {
        let root = tmp_root("tmpfiles");
        let cache = DiskCache::open(&root).unwrap();
        let key = ContentKey::of(b"src6");
        cache.store("ast", key, 0, b"bytes");
        let entries: Vec<_> = std::fs::read_dir(root.join("ast"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries.len(), 1);
        assert!(entries[0].ends_with(".psc"), "{entries:?}");
    }
}
