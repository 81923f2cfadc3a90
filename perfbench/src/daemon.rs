//! The shipped `phpsafe serve` binary as a child process, a blocking
//! NDJSON client for it, and the reader for its `--telemetry-out` stream.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use phpsafe_serve::{parse, Json};

pub struct Daemon {
    child: Child,
    port: u16,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts `phpsafe serve --port 0 --cache-dir <dir> --workers 2` and
    /// waits for it to report the port it bound.
    pub fn spawn(bin: &Path, cache_dir: &Path, telemetry: Option<&Path>) -> io::Result<Daemon> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--port", "0", "--workers", "2", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(path) = telemetry {
            cmd.arg("--telemetry-out").arg(path);
        }
        let mut child = cmd.spawn()?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut port = None;
        let mut line = String::new();
        while stderr.read_line(&mut line)? > 0 {
            if let Some(addr) = line.trim().strip_prefix("phpsafe serve: listening on ") {
                port = addr.rsplit(':').next().and_then(|p| p.parse().ok());
                break;
            }
            eprint!("phpsafe serve: {line}");
            line.clear();
        }
        let Some(port) = port else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("daemon exited before listening"));
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let stderr_drain = std::thread::spawn(move || {
            for line in stderr.lines().map_while(Result::ok) {
                eprintln!("phpsafe serve: {line}");
            }
        });
        Ok(Daemon {
            child,
            port,
            stderr_drain: Some(stderr_drain),
        })
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", self.port))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// The child's peak resident set so far.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::peak_rss_mb(self.child.id())
    }

    /// Sends `shutdown` and waits for the child to exit. Every other
    /// connection must be closed first: the daemon drains them before it
    /// exits.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = self.connect()?;
        conn.call("{\"cmd\":\"shutdown\"}")?;
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Sends one request line and returns the reply line.
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::other("daemon closed the connection"));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

/// Checks the reply envelope (`ok`, `seq >= 1`, the `id` echo) without
/// parsing the body; returns the seq.
pub fn envelope_seq(reply: &str, id: u64) -> Option<u64> {
    let rest = reply.strip_prefix("{\"ok\":true,\"seq\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let seq: u64 = rest[..digits].parse().ok()?;
    let echo = format!(",\"id\":{id}");
    (seq >= 1 && rest[digits..].starts_with(&echo)).then_some(seq)
}

/// `{"cmd":"analyze",...}` for one root with optional unsaved buffers.
pub fn analyze_request(id: u64, root: &str, buffer: Option<(&str, &str)>) -> String {
    let mut fields = vec![
        ("cmd".to_owned(), Json::Str("analyze".to_owned())),
        ("id".to_owned(), Json::Num(id as f64)),
        (
            "paths".to_owned(),
            Json::Arr(vec![Json::Str(root.to_owned())]),
        ),
    ];
    if let Some((path, content)) = buffer {
        fields.push((
            "buffers".to_owned(),
            Json::Obj(vec![(path.to_owned(), Json::Str(content.to_owned()))]),
        ));
    }
    Json::Obj(fields).emit()
}

pub fn invalidate_request(id: u64, path: &str) -> String {
    Json::Obj(vec![
        ("cmd".to_owned(), Json::Str("invalidate".to_owned())),
        ("id".to_owned(), Json::Num(id as f64)),
        (
            "paths".to_owned(),
            Json::Arr(vec![Json::Str(path.to_owned())]),
        ),
    ])
    .emit()
}

/// The first report string of a parsed `analyze` reply.
pub fn first_report(reply: &Json) -> Option<&str> {
    reply
        .get("result")?
        .get("reports")?
        .as_arr()?
        .first()?
        .get("report")?
        .as_str()
}

/// One request's wide event from the daemon's telemetry stream.
pub struct WideEvent {
    pub queue_wait_us: u64,
    pub service_us: u64,
    pub marks: Vec<(String, u64)>,
}

/// Reads a `--telemetry-out` NDJSON file, keyed by `seq`.
pub fn read_telemetry(path: &Path) -> io::Result<HashMap<u64, WideEvent>> {
    let text = std::fs::read_to_string(path)?;
    let mut events = HashMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let event = parse(line).map_err(io::Error::other)?;
        let num = |k: &str| event.get(k).and_then(Json::as_num).unwrap_or(0.0) as u64;
        let marks = match event.get("marks") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_num().unwrap_or(0.0) as u64))
                .collect(),
            _ => Vec::new(),
        };
        events.insert(
            num("seq"),
            WideEvent {
                queue_wait_us: num("queue_wait_us"),
                service_us: num("service_us"),
                marks,
            },
        );
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_check_requires_ok_seq_and_id() {
        assert_eq!(
            envelope_seq("{\"ok\":true,\"seq\":12,\"id\":7,\"result\":{}}", 7),
            Some(12)
        );
        assert_eq!(envelope_seq("{\"ok\":true,\"seq\":12,\"id\":8}", 7), None);
        assert_eq!(envelope_seq("{\"ok\":true,\"seq\":0,\"id\":7}", 7), None);
        assert_eq!(
            envelope_seq("{\"ok\":false,\"seq\":3,\"id\":7,\"code\":429}", 7),
            None
        );
    }

    #[test]
    fn requests_round_trip_through_the_protocol_parser() {
        let line = analyze_request(3, "/p", Some(("/p/a.php", "<?php echo \"x\";\n")));
        let env = phpsafe_serve::parse_line(&line).unwrap();
        assert_eq!(env.id, Some(Json::Num(3.0)));
        let phpsafe_serve::Request::Analyze(req) = env.request else {
            panic!("analyze expected");
        };
        assert_eq!(req.jobs, None, "editor requests leave jobs to the daemon");
        assert_eq!(req.buffers[0].1, "<?php echo \"x\";\n");
        assert!(phpsafe_serve::parse_line(&invalidate_request(4, "/p/a.php")).is_ok());
    }
}
