//! The daemon's NDJSON wire protocol.
//!
//! Each request is one JSON object per line with a `cmd` field and an
//! optional client-chosen `id` that is echoed back in the response:
//!
//! ```text
//! {"cmd":"analyze","paths":["plugin-a"],"tools":["phpSAFE"],"jobs":4,"id":1}
//! {"cmd":"analyze","paths":["plugin-a"],"buffers":{"plugin-a/admin.php":"<?php ..."}}
//! {"cmd":"invalidate","paths":["plugin-a/admin.php"]}
//! {"cmd":"status"}
//! {"cmd":"metrics"}
//! {"cmd":"metrics","format":"prometheus"}
//! {"cmd":"telemetry"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Responses are `{"ok":true,...}` or `{"ok":false,"code":N,"error":"..."}`
//! with HTTP-flavoured codes (`400` malformed or oversize, `429` queue
//! full, `503` draining, `504` request timeout, `500` analysis failure or
//! panic). Every
//! response — success or error, including `400` replies to lines that
//! never parsed — carries the server-assigned request id as `"seq"`, and
//! the client's `id` whenever the line got far enough to reveal one (a
//! field-validation `400` still echoes it), so any reply can be
//! correlated with its wide event in the telemetry stream.

use phpsafe_obs::json::{parse, Json};

/// Parameters of an `analyze` request.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// Plugin roots to analyze, in request order.
    pub paths: Vec<String>,
    /// Tool configurations to run; empty means the service default.
    pub tools: Vec<String>,
    /// How many whole (path, tool) analyses this request runs at once;
    /// `None` means the daemon default. Each analysis itself is serial.
    pub jobs: Option<usize>,
    /// Unsaved editor buffers overlaid on the on-disk project: pairs of
    /// `(path, content)` in request order. Paths may be absolute under a
    /// requested root or root-relative.
    pub buffers: Vec<(String, String)>,
}

/// Parameters of an `invalidate` request: files (or roots) whose on-disk
/// contents changed since the daemon last analyzed them.
#[derive(Debug, Clone, PartialEq)]
pub struct InvalidateRequest {
    /// Changed paths, in request order.
    pub paths: Vec<String>,
}

/// A decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run analysis over one or more plugin roots.
    Analyze(AnalyzeRequest),
    /// Re-check changed files against the dependency graph and re-warm
    /// affected projects.
    Invalidate(InvalidateRequest),
    /// Report daemon health (queue depth, workers, totals).
    Status,
    /// Return the current phpsafe-obs snapshot. With
    /// `"format":"prometheus"`, the reply carries the text exposition
    /// instead of the JSON document.
    Metrics {
        /// Whether the client asked for the Prometheus text exposition.
        prometheus: bool,
    },
    /// Return the retained wide-event tail (slowest and errored requests).
    Telemetry,
    /// Drain queued requests and stop the daemon.
    Shutdown,
}

/// A request plus the client's optional `id`, echoed in the response.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client correlation id (any JSON value), if supplied.
    pub id: Option<Json>,
    /// The decoded command.
    pub request: Request,
}

fn str_list(value: &Json, what: &str) -> Result<Vec<String>, String> {
    let items = value
        .as_arr()
        .ok_or_else(|| format!("`{what}` must be an array of strings"))?;
    items
        .iter()
        .map(|item| {
            item.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{what}` must be an array of strings"))
        })
        .collect()
}

/// A request line that failed to decode. The client `id` is carried
/// whenever the line parsed far enough as JSON to reveal one, so even a
/// `400` reply can echo it (the PR 7 correlation contract).
#[derive(Debug, Clone, PartialEq)]
pub struct ParseFailure {
    /// Client correlation id, if the malformed line still carried one.
    pub id: Option<Json>,
    /// What was wrong with the line.
    pub message: String,
}

/// Decodes one NDJSON request line.
pub fn parse_line(line: &str) -> Result<Envelope, ParseFailure> {
    let value = match parse(line) {
        Ok(v) => v,
        Err(message) => return Err(ParseFailure { id: None, message }),
    };
    if !matches!(value, Json::Obj(_)) {
        return Err(ParseFailure {
            id: None,
            message: "request must be a JSON object".into(),
        });
    }
    let id = value.get("id").cloned();
    match parse_request(&value) {
        Ok(request) => Ok(Envelope { id, request }),
        Err(message) => Err(ParseFailure { id, message }),
    }
}

fn parse_request(value: &Json) -> Result<Request, String> {
    let cmd = value
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field `cmd`")?;
    let request = match cmd {
        "analyze" => {
            let paths = match value.get("paths") {
                Some(v) => str_list(v, "paths")?,
                None => return Err("analyze requires a `paths` array".into()),
            };
            if paths.is_empty() {
                return Err("analyze requires at least one path".into());
            }
            let tools = match value.get("tools") {
                Some(v) => str_list(v, "tools")?,
                None => Vec::new(),
            };
            let jobs = match value.get("jobs") {
                None => None,
                Some(v) => {
                    let n = v.as_num().ok_or("`jobs` must be a number")?;
                    if n < 0.0 || n.fract() != 0.0 {
                        return Err("`jobs` must be a non-negative integer".into());
                    }
                    Some(n as usize)
                }
            };
            let buffers = match value.get("buffers") {
                None => Vec::new(),
                Some(Json::Obj(entries)) => {
                    let mut buffers = Vec::new();
                    for (path, content) in entries {
                        let content = content.as_str().ok_or("`buffers` values must be strings")?;
                        buffers.push((path.clone(), content.to_owned()));
                    }
                    buffers
                }
                Some(_) => return Err("`buffers` must be an object of path -> content".into()),
            };
            Request::Analyze(AnalyzeRequest {
                paths,
                tools,
                jobs,
                buffers,
            })
        }
        "invalidate" => {
            let paths = match value.get("paths") {
                Some(v) => str_list(v, "paths")?,
                None => return Err("invalidate requires a `paths` array".into()),
            };
            if paths.is_empty() {
                return Err("invalidate requires at least one path".into());
            }
            Request::Invalidate(InvalidateRequest { paths })
        }
        "status" => Request::Status,
        "metrics" => {
            let prometheus = match value.get("format") {
                None => false,
                Some(v) => match v.as_str() {
                    Some("prometheus") => true,
                    Some("json") => false,
                    _ => return Err("`format` must be \"json\" or \"prometheus\"".into()),
                },
            };
            Request::Metrics { prometheus }
        }
        "telemetry" => Request::Telemetry,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown cmd `{other}`")),
    };
    Ok(request)
}

fn envelope(ok: bool, seq: u64, id: Option<&Json>, mut fields: Vec<(String, Json)>) -> String {
    let mut all = vec![
        ("ok".to_owned(), Json::Bool(ok)),
        ("seq".to_owned(), Json::Num(seq as f64)),
    ];
    if let Some(id) = id {
        all.push(("id".to_owned(), id.clone()));
    }
    all.append(&mut fields);
    Json::Obj(all).emit()
}

/// Renders a success response line:
/// `{"ok":true,"seq":N,"id":...,<fields>}`.
pub fn ok_response(seq: u64, id: Option<&Json>, fields: Vec<(String, Json)>) -> String {
    envelope(true, seq, id, fields)
}

/// Renders an error response line with an HTTP-flavoured `code`. The
/// server `seq` is present even when the request never parsed (no `id`
/// to echo), so every shed or failed request stays traceable.
pub fn error_response(seq: u64, id: Option<&Json>, code: u32, message: &str) -> String {
    envelope(
        false,
        seq,
        id,
        vec![
            ("code".to_owned(), Json::Num(code as f64)),
            ("error".to_owned(), Json::Str(message.to_owned())),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_analyze_with_all_fields() {
        let env = parse_line(
            r#"{"cmd":"analyze","paths":["a","b"],"tools":["phpSAFE"],"jobs":4,"id":7}"#,
        )
        .unwrap();
        assert_eq!(env.id, Some(Json::Num(7.0)));
        assert_eq!(
            env.request,
            Request::Analyze(AnalyzeRequest {
                paths: vec!["a".into(), "b".into()],
                tools: vec!["phpSAFE".into()],
                jobs: Some(4),
                buffers: Vec::new(),
            })
        );
    }

    #[test]
    fn parses_analyze_with_dirty_buffers() {
        let env = parse_line(
            r#"{"cmd":"analyze","paths":["p"],"buffers":{"p/a.php":"<?php 1;","b.php":""}}"#,
        )
        .unwrap();
        match env.request {
            Request::Analyze(req) => {
                assert_eq!(
                    req.buffers,
                    [
                        ("p/a.php".to_owned(), "<?php 1;".to_owned()),
                        ("b.php".to_owned(), String::new()),
                    ]
                );
            }
            other => panic!("expected analyze, got {other:?}"),
        }
        assert!(parse_line(r#"{"cmd":"analyze","paths":["p"],"buffers":[]}"#).is_err());
        assert!(parse_line(r#"{"cmd":"analyze","paths":["p"],"buffers":{"a.php":7}}"#).is_err());
    }

    #[test]
    fn parses_invalidate() {
        let env = parse_line(r#"{"cmd":"invalidate","paths":["p/a.php"],"id":"inv-1"}"#).unwrap();
        assert_eq!(env.id, Some(Json::Str("inv-1".into())));
        assert_eq!(
            env.request,
            Request::Invalidate(InvalidateRequest {
                paths: vec!["p/a.php".into()],
            })
        );
        assert!(parse_line(r#"{"cmd":"invalidate"}"#).is_err());
        assert!(parse_line(r#"{"cmd":"invalidate","paths":[]}"#).is_err());
        assert!(parse_line(r#"{"cmd":"invalidate","paths":[3]}"#).is_err());
    }

    #[test]
    fn parse_failures_keep_the_client_id_when_one_was_sent() {
        // Field-validation failures happen after the id was decoded; the
        // daemon echoes it in the 400 reply.
        for line in [
            r#"{"cmd":"invalidate","paths":[],"id":"bad-1"}"#,
            r#"{"cmd":"analyze","id":"bad-1"}"#,
            r#"{"cmd":"frobnicate","id":"bad-1"}"#,
            r#"{"cmd":"analyze","paths":["p"],"buffers":3,"id":"bad-1"}"#,
        ] {
            let failure = parse_line(line).unwrap_err();
            assert_eq!(
                failure.id,
                Some(Json::Str("bad-1".into())),
                "id lost for: {line}"
            );
        }
        // A line that never parsed as JSON has no id to echo.
        assert_eq!(parse_line("garbage").unwrap_err().id, None);
    }

    #[test]
    fn parses_bare_commands() {
        for (line, want) in [
            (r#"{"cmd":"status"}"#, Request::Status),
            (
                r#"{"cmd":"metrics"}"#,
                Request::Metrics { prometheus: false },
            ),
            (r#"{"cmd":"telemetry"}"#, Request::Telemetry),
            (r#"{"cmd":"shutdown"}"#, Request::Shutdown),
        ] {
            let env = parse_line(line).unwrap();
            assert_eq!(env.id, None);
            assert_eq!(env.request, want);
        }
    }

    #[test]
    fn parses_metrics_formats() {
        assert_eq!(
            parse_line(r#"{"cmd":"metrics","format":"prometheus"}"#)
                .unwrap()
                .request,
            Request::Metrics { prometheus: true }
        );
        assert_eq!(
            parse_line(r#"{"cmd":"metrics","format":"json"}"#)
                .unwrap()
                .request,
            Request::Metrics { prometheus: false }
        );
        assert!(parse_line(r#"{"cmd":"metrics","format":"xml"}"#).is_err());
        assert!(parse_line(r#"{"cmd":"metrics","format":7}"#).is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "not json",
            r#""just a string""#,
            r#"{"paths":["a"]}"#,
            r#"{"cmd":"frobnicate"}"#,
            r#"{"cmd":"analyze"}"#,
            r#"{"cmd":"analyze","paths":[]}"#,
            r#"{"cmd":"analyze","paths":[1]}"#,
            r#"{"cmd":"analyze","paths":["a"],"jobs":-1}"#,
            r#"{"cmd":"analyze","paths":["a"],"jobs":1.5}"#,
        ] {
            assert!(parse_line(line).is_err(), "should reject: {line}");
        }
    }

    #[test]
    fn responses_echo_seq_and_id() {
        let id = Json::Str("req-1".into());
        assert_eq!(
            ok_response(3, Some(&id), vec![("n".into(), Json::Num(2.0))]),
            r#"{"ok":true,"seq":3,"id":"req-1","n":2}"#
        );
        assert_eq!(
            error_response(4, Some(&id), 429, "queue full"),
            r#"{"ok":false,"seq":4,"id":"req-1","code":429,"error":"queue full"}"#
        );
        assert_eq!(
            error_response(5, None, 400, "bad"),
            r#"{"ok":false,"seq":5,"code":400,"error":"bad"}"#
        );
    }
}
