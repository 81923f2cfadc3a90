//! Computes the build stamp every disk-cache entry carries.
//!
//! The stamp hashes the path and bytes of every `.rs` file under
//! `crates/*/src` and `shims/*/src`, in sorted path order, so any source
//! edit in any crate yields a new stamp and entries written by another
//! build miss as stale. Paths are hashed relative to the workspace root:
//! two checkouts of the same sources agree, and every binary built from
//! one checkout (`phpsafe`, `repro`) shares one cache directory.

use std::path::{Path, PathBuf};

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/engine sits two levels below the workspace root");
    let mut files = Vec::new();
    for group in ["crates", "shims"] {
        for krate in read_dir_sorted(&root.join(group)) {
            let src = krate.join("src");
            if src.is_dir() {
                // Cargo scans a directory recursively. Watching only the
                // `src` trees keeps a test or bench edit from rebuilding
                // every crate downstream of this one.
                println!("cargo:rerun-if-changed={}", src.display());
                collect_rs(&src, &mut files);
            }
        }
    }
    files.sort();
    let mut stamp = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(root).expect("collected under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let bytes = std::fs::read(file).expect("readable source file");
        for part in [rel.as_bytes(), &bytes] {
            stamp = fnv1a(stamp, &(part.len() as u64).to_le_bytes());
            stamp = fnv1a(stamp, part);
        }
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    std::fs::write(
        out.join("build_stamp.rs"),
        format!("const BUILD_STAMP: u64 = {stamp:#018x};\n"),
    )
    .expect("OUT_DIR is writable");
}

fn read_dir_sorted(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(entries) => entries.flatten().map(|e| e.path()).collect(),
        Err(_) => Vec::new(),
    };
    paths.sort();
    paths
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in read_dir_sorted(dir) {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Extends a 64-bit FNV-1a hash: std-only, and fixed across toolchains,
/// unlike `DefaultHasher`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}
