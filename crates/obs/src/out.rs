//! Crash-safe file output for telemetry artifacts.
//!
//! `--metrics-out`, `--engine-stats-json` and `--telemetry-out` are read
//! by harnesses and dashboards; a run killed mid-write must never leave a
//! half-written JSON behind. [`write_atomic`] follows the `DiskCache`
//! convention — write the full contents to a sibling temp file, then
//! `rename` into place. [`TelemetrySink`] is an append-only NDJSON
//! wide-event stream: it writes each batch of lines once, with one write
//! call, and keeps no history in memory.

use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many appended lines a [`TelemetrySink`] buffers before writing.
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

/// An NDJSON sink for wide events. Lines are buffered and written to the
/// end of the file in batches of at most `FLUSH_EVERY` (64), each batch
/// with one `write_all`; [`TelemetrySink::flush`] (which the daemon calls
/// at shutdown) writes the rest and syncs the file's data. The file is
/// opened once, truncated, on the first write, and the sink owns its only
/// handle, so every write lands after the previous one. Only the pending
/// batch is held in memory, and each line is written exactly once.
pub struct TelemetrySink {
    path: PathBuf,
    state: Mutex<SinkState>,
}

struct SinkState {
    /// Opened on the first write, so a sink that never writes leaves no
    /// file behind.
    file: Option<File>,
    /// Lines not yet written, newline-terminated.
    pending: String,
    /// Number of lines in `pending`.
    lines: usize,
}

impl SinkState {
    /// Writes the pending lines with one `write_all` and empties the
    /// buffer, whether or not the write succeeds.
    fn write_pending(&mut self, path: &Path) -> io::Result<&mut File> {
        let file = match &mut self.file {
            Some(file) => file,
            slot => slot.insert(File::create(path)?),
        };
        let written = file.write_all(self.pending.as_bytes());
        self.pending.clear();
        self.lines = 0;
        written.map(|()| file)
    }
}

impl TelemetrySink {
    /// A sink writing to `path`. The file itself is created on the first
    /// write.
    pub fn new(path: impl Into<PathBuf>) -> TelemetrySink {
        TelemetrySink {
            path: path.into(),
            state: Mutex::new(SinkState {
                file: None,
                pending: String::new(),
                lines: 0,
            }),
        }
    }

    /// The sink's target path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one NDJSON line (the newline is added here) and writes the
    /// batch once it holds `FLUSH_EVERY` lines.
    pub fn append(&self, line: &str) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        state.pending.push_str(line);
        state.pending.push('\n');
        state.lines += 1;
        if state.lines >= FLUSH_EVERY {
            state.write_pending(&self.path)?;
        }
        Ok(())
    }

    /// Writes every pending line and syncs the file's data to disk.
    pub fn flush(&self) -> io::Result<()> {
        let mut state = self.state.lock().unwrap();
        state.write_pending(&self.path)?.sync_data()
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

    #[test]
    fn sink_appends_full_batches_and_keeps_only_the_pending_one() {
        let dir = tmp("sink-append");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("telemetry.ndjson");
        let sink = TelemetrySink::new(&path);
        for i in 0..1000 {
            sink.append(&format!("{{\"seq\":{i}}}")).unwrap();
            let pending = sink.state.lock().unwrap().lines;
            assert!(pending <= FLUSH_EVERY, "{pending} lines pending");
        }
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written.lines().count(), 960, "15 full batches of 64");
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1000);
        for (i, line) in text.lines().enumerate() {
            assert_eq!(line, format!("{{\"seq\":{i}}}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
