//! Crash-safe file output for telemetry artifacts.
//!
//! `--metrics-out`, `--engine-stats-json` and `--telemetry-out` are read
//! by harnesses and dashboards; a run killed mid-write must never leave a
//! half-written JSON behind. [`write_atomic`] follows the `DiskCache`
//! convention — write the full contents to a sibling temp file, then
//! `rename` into place — and [`TelemetrySink`] layers an NDJSON
//! wide-event stream on top of it, rewriting the file atomically on each
//! flush so the sink's file is a valid NDJSON document at every instant.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many appended lines a [`TelemetrySink`] buffers before flushing.
const FLUSH_EVERY: usize = 64;

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temp file (same directory, so the rename never crosses filesystems)
/// that is `rename`d over `path`. Readers see either the old complete
/// file or the new complete file, never a torn write.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(
        ".{}.tmp.{}.{seq}",
        name.to_string_lossy(),
        std::process::id()
    );
    let tmp = match dir {
        Some(dir) => dir.join(tmp_name),
        None => PathBuf::from(tmp_name),
    };
    let written = std::fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(contents))
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// An NDJSON sink for wide events: lines accumulate in memory and the
/// whole stream is rewritten to disk atomically every `FLUSH_EVERY` (64)
/// appends and on [`TelemetrySink::flush`] (which the daemon calls at
/// shutdown). A killed daemon therefore leaves the last complete flush,
/// never a torn line.
pub struct TelemetrySink {
    path: PathBuf,
    state: Mutex<SinkState>,
}

struct SinkState {
    buffer: String,
    unflushed: usize,
}

impl TelemetrySink {
    /// A sink writing to `path`. The file itself is created on the first
    /// flush.
    pub fn new(path: impl Into<PathBuf>) -> TelemetrySink {
        TelemetrySink {
            path: path.into(),
            state: Mutex::new(SinkState {
                buffer: String::new(),
                unflushed: 0,
            }),
        }
    }

    /// The sink's target path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one NDJSON line (the newline is added here) and flushes
    /// when enough lines accumulated.
    pub fn append(&self, line: &str) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        state.buffer.push_str(line);
        state.buffer.push('\n');
        state.unflushed += 1;
        if state.unflushed >= FLUSH_EVERY {
            return Self::flush_locked(&self.path, &mut state);
        }
        Ok(())
    }

    /// Forces the buffered stream onto disk (atomic rewrite).
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        Self::flush_locked(&self.path, &mut state)
    }

    fn flush_locked(path: &Path, state: &mut SinkState) -> io::Result<()> {
        state.unflushed = 0;
        write_atomic(path, state.buffer.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("phpsafe-obs-out-{tag}-{}", std::process::id()))
    }

    #[test]
    fn write_atomic_replaces_contents_and_leaves_no_temp_files() {
        let dir = tmp("atomic");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.json");
        write_atomic(&path, b"{\"a\":1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"a\":1}");
        write_atomic(&path, b"{\"a\":2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"a\":2}");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_rejects_directory_targets() {
        let dir = tmp("atomic-dir");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(write_atomic(&dir, b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_accumulates_and_flush_writes_complete_stream() {
        let dir = tmp("sink");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.ndjson");
        let sink = TelemetrySink::new(&path);
        sink.append("{\"seq\":1}").unwrap();
        sink.append("{\"seq\":2}").unwrap();
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"seq\":1}\n{\"seq\":2}\n");
        // Later appends keep the earlier lines: the stream grows.
        sink.append("{\"seq\":3}").unwrap();
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
