//! Persistent on-disk artifact cache.
//!
//! [`DiskCache`] is the durable tier behind the in-memory
//! [`ArtifactCache`](crate::ArtifactCache)s: artifacts (serialized ASTs,
//! call-summary blobs, rendered analysis outcomes) survive the process, so
//! a fresh daemon — or a batch CLI run pointed at the same `--cache-dir` —
//! warm-starts from a prior run instead of repaying the full parse/analyze
//! cost.
//!
//! The cache never trusts its own files. Every entry is wrapped in a
//! versioned envelope carrying the format version, the writing crate's
//! version, the caller's configuration fingerprint, the content key and a
//! [`digest64`] of the payload. A [`DiskCache::load`] is one buffered
//! read of the entry file, and it re-validates all of them:
//!
//! * a **stale** entry (format/crate-version/fingerprint/key mismatch) is
//!   evicted — counted in `diskcache.evicted` with a log line;
//! * a **corrupt** entry (truncation, bad magic, digest mismatch) is
//!   removed — counted in `diskcache.corrupt` with a log line;
//!
//! and either way the load reports a miss, so the caller falls back to
//! re-parsing/re-analyzing. Decoding failures *above* the envelope (the
//! payload bytes don't deserialize) are reported back through
//! [`DiskCache::note_corrupt`] and handled the same way.
//!
//! Stores are atomic: the entry is written to a temporary file in the same
//! directory and `rename`d into place, so concurrent readers and a crashed
//! writer can never observe a half-written entry.

use crate::hash::{digest64, ContentKey};
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every cache entry.
const MAGIC: &[u8; 4] = b"PSC1";

/// Bumped whenever the envelope layout changes; older entries are evicted.
// 2: the payload digest is `digest64`, no longer FNV-1a; every key and
//    fingerprint written under 1 was derived with FNV-1a as well.
const FORMAT_VERSION: u32 = 2;

/// Version of the writing crate; payload encodings may change between
/// releases without bumping [`FORMAT_VERSION`], so entries written by a
/// different build are evicted wholesale.
const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

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
    /// Entries dropped because the format version, crate version or
    /// configuration fingerprint no longer matches.
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
/// separates artifact kinds (`"ast"`, `"summary"`, `"outcome"`,
/// `"depgraph"`) that share a content key space. All operations are infallible at the API level:
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
    /// Bytes on disk per namespace, seeded by a directory scan at open
    /// and maintained on every store/evict; published as the
    /// `diskcache.bytes_on_disk.<ns>` gauge family — the bookkeeping a
    /// size-bounded eviction policy needs.
    ns_bytes: Mutex<HashMap<String, u64>>,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let ns_bytes = scan_ns_bytes(&root);
        for (ns, total) in &ns_bytes {
            phpsafe_obs::gauge(&format!("diskcache.bytes_on_disk.{ns}"), *total);
        }
        Ok(DiskCache {
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
            ns_bytes: Mutex::new(ns_bytes),
        })
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
    /// by the open-time scan and maintained on store/evict; concurrent
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

    fn drop_entry(&self, path: &Path, fault: EntryFault) {
        let what = match fault {
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
        };
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

/// Sums the `.psc` entry sizes under every namespace directory of `root`.
fn scan_ns_bytes(root: &Path) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return out;
    };
    for ns_dir in entries.flatten() {
        let path = ns_dir.path();
        if !path.is_dir() {
            continue;
        }
        let Ok(ns) = ns_dir.file_name().into_string() else {
            continue;
        };
        let mut total = 0u64;
        if let Ok(files) = std::fs::read_dir(&path) {
            for f in files.flatten() {
                let p = f.path();
                if p.extension().is_some_and(|e| e == "psc") {
                    total += f.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        out.insert(ns, total);
    }
    out
}

/// Why an entry was dropped.
enum EntryFault {
    /// The bytes are damaged (truncation, bad magic, digest mismatch).
    Corrupt(&'static str),
    /// The bytes are intact but written under a different format/crate
    /// version or configuration fingerprint.
    Stale(&'static str),
}

fn seal_envelope(ns: &str, key: ContentKey, fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 64 + ns.len() + CRATE_VERSION.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(CRATE_VERSION.len() as u8);
    out.extend_from_slice(CRATE_VERSION.as_bytes());
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

    fn take_u32(&mut self) -> Result<u32, EntryFault> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn take_u64(&mut self) -> Result<u64, EntryFault> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
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
    let mut c = Cursor { bytes, at: 0 };
    if c.take(4)? != MAGIC {
        return Err(Corrupt("bad magic"));
    }
    if c.take_u32()? != FORMAT_VERSION {
        return Err(Stale("format version mismatch"));
    }
    let ver_len = c.take(1)?[0] as usize;
    if c.take(ver_len)? != CRATE_VERSION.as_bytes() {
        return Err(Stale("crate version mismatch"));
    }
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
        cache.store("summary", key, 1, b"old-config");
        assert_eq!(cache.load("summary", key, 2), None);
        assert_eq!(cache.counters().evicted, 1);
        // The stale entry is gone — a store under the new fingerprint wins.
        cache.store("summary", key, 2, b"new-config");
        assert_eq!(
            cache.load("summary", key, 2).as_deref(),
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

    #[test]
    fn version_1_entry_is_evicted_as_stale() {
        let cache = DiskCache::open(tmp_root("v1")).unwrap();
        let key = ContentKey::of(b"src7");
        let payload = b"written by a format-1 build";
        // The format-1 layout: FNV-1a payload digest, version word 1.
        let mut sealed = Vec::new();
        sealed.extend_from_slice(MAGIC);
        sealed.extend_from_slice(&1u32.to_le_bytes());
        sealed.push(CRATE_VERSION.len() as u8);
        sealed.extend_from_slice(CRATE_VERSION.as_bytes());
        sealed.push(3);
        sealed.extend_from_slice(b"ast");
        sealed.extend_from_slice(&0u64.to_le_bytes());
        sealed.extend_from_slice(&key.hash.to_le_bytes());
        sealed.extend_from_slice(&key.len.to_le_bytes());
        sealed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        sealed.extend_from_slice(&crate::fnv1a_64(payload).to_le_bytes());
        sealed.extend_from_slice(payload);
        let path = cache.entry_path("ast", key);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &sealed).unwrap();

        assert_eq!(cache.load("ast", key, 0), None);
        let c = cache.counters();
        assert_eq!((c.evicted, c.corrupt), (1, 0), "{c:?}");
        assert!(!path.exists(), "stale entry must be removed");
        // The slot is free for an entry in the current format.
        assert!(cache.store("ast", key, 0, payload));
        assert_eq!(cache.load("ast", key, 0).as_deref(), Some(&payload[..]));
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
        assert_eq!(cache.load("summary", key, 0), None);
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
        cache.store("summary", k1, 0, b"s");
        let sizes: std::collections::HashMap<String, u64> =
            cache.bytes_on_disk().into_iter().collect();
        let ast_total = sizes["ast"];
        assert!(ast_total > 0 && sizes["summary"] > 0);
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
