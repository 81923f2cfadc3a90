//! The daemon-side analysis service.
//!
//! [`AnalysisServer`] implements `phpsafe_serve::Service`, connecting the
//! transport-agnostic daemon (queue, timeouts, NDJSON protocol) to the
//! actual analyzer. It owns the long-lived [`EngineCaches`], so repeated
//! `analyze` requests reuse parsed ASTs and call summaries: only files
//! whose content key changed are re-parsed, and only projects whose
//! content fingerprint changed are re-analyzed at all. Each file is
//! digested once per request, as it is loaded or overlaid; every key the
//! request needs derives from those digests.
//!
//! Three cache tiers serve a request, fastest first:
//!
//! 1. **Rendered-outcome tier** (`outcome` namespace on disk): the exact
//!    JSON report of a prior run, keyed by the project's content key and
//!    the tool's config fingerprint together, so every tool keeps its own
//!    entry. A hit skips analysis entirely and embeds the stored bytes in
//!    the reply — which is how daemon replies stay byte-identical to batch
//!    CLI output across restarts.
//! 2. **In-memory file units + summary caches**: shared across requests
//!    for the daemon's lifetime.
//! 3. **On-disk AST tier**: populated by prior processes of the same
//!    build (a batch run with `--cache-dir`, or an earlier daemon);
//!    corrupt entries and entries another build wrote are evicted and
//!    counted, never trusted.
//!
//! `invalidate` resolves the files an edit can affect in memory, from the
//! file units of the root's previous and current contents
//! ([`affected_files`]); a previous unit the memory lost is decoded from
//! the AST tier by its content key.
//!
//! Every tool is a [`PhpSafe`] configuration: the RIPS/Pixy baselines are
//! `PhpSafe` instances too, so evaluation harnesses can register them
//! next to the default phpSAFE instance.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use phpsafe_engine::{effective_jobs, run_ordered, ContentKey};
use phpsafe_serve::{AnalyzeRequest, InvalidateRequest, Json, RequestCtx, Service};

use crate::caching::{EngineCaches, FileUnit};
use crate::project::{load_project, PluginProject, SourceFile};
use crate::{affected_files, PhpSafe};

/// Disk-cache namespace for rendered JSON reports.
pub const OUTCOME_NAMESPACE: &str = "outcome";

/// What the daemon remembers about a root it has analyzed: each file's
/// content key, for diffing a reload and finding its unit, and the tools
/// the client last ran — so `invalidate` can re-warm exactly what the
/// next `analyze` will ask.
#[derive(Clone)]
struct ProjectState {
    file_hashes: HashMap<String, ContentKey>,
    tools: Vec<String>,
}

fn file_hashes(project: &PluginProject) -> HashMap<String, ContentKey> {
    project
        .files()
        .iter()
        .zip(project.file_keys())
        .map(|(f, &key)| (f.path.clone(), key))
        .collect()
}

/// The resident analysis service behind `phpsafe serve`.
pub struct AnalysisServer {
    tools: Vec<(String, PhpSafe)>,
    caches: EngineCaches,
    default_jobs: usize,
    /// Known roots (request-path keyed) and their last-analyzed state.
    projects: Mutex<HashMap<String, ProjectState>>,
}

impl AnalysisServer {
    /// A server with the default phpSAFE tool and fresh in-memory caches.
    pub fn new() -> AnalysisServer {
        AnalysisServer::with_caches(EngineCaches::new())
    }

    /// A server reusing existing caches (typically `EngineCaches::
    /// with_disk` so the daemon warm-starts from a prior process).
    pub fn with_caches(caches: EngineCaches) -> AnalysisServer {
        let mut server = AnalysisServer {
            tools: Vec::new(),
            caches,
            default_jobs: effective_jobs(usize::MAX).0,
            projects: Mutex::new(HashMap::new()),
        };
        server.register("phpSAFE", PhpSafe::new());
        server
    }

    /// Registers (or replaces) a named tool.
    pub fn register(&mut self, name: impl Into<String>, tool: PhpSafe) {
        let name = name.into();
        self.tools.retain(|(n, _)| *n != name);
        self.tools.push((name, tool));
    }

    /// Sets the worker count used when a request doesn't override it.
    pub fn with_default_jobs(mut self, jobs: usize) -> AnalysisServer {
        self.default_jobs = effective_jobs(jobs).0;
        self
    }

    /// The shared caches (for stats).
    pub fn caches(&self) -> &EngineCaches {
        &self.caches
    }

    fn resolve_tools<'a>(
        &'a self,
        requested: &[String],
    ) -> Result<Vec<(&'a str, &'a PhpSafe)>, String> {
        if self.tools.is_empty() {
            return Err("no tools registered".into());
        }
        if requested.is_empty() {
            let (name, tool) = &self.tools[0];
            return Ok(vec![(name.as_str(), tool)]);
        }
        requested
            .iter()
            .map(|want| {
                self.tools
                    .iter()
                    .find(|(name, _)| name == want)
                    .map(|(name, tool)| (name.as_str(), tool))
                    .ok_or_else(|| {
                        let known: Vec<&str> = self.tools.iter().map(|(n, _)| n.as_str()).collect();
                        format!("unknown tool `{want}` (registered: {})", known.join(", "))
                    })
            })
            .collect()
    }

    /// The rendered report of `tool` for the project whose content key is
    /// `key`, from the disk outcome tier.
    fn cached_report(&self, tool: &PhpSafe, key: ContentKey) -> Option<String> {
        let disk = self.caches.disk()?;
        let entry = outcome_key(key, tool);
        let bytes = disk.load(OUTCOME_NAMESPACE, entry, tool.fingerprint())?;
        match String::from_utf8(bytes) {
            Ok(report) => Some(report),
            Err(_) => {
                disk.note_corrupt(OUTCOME_NAMESPACE, entry);
                None
            }
        }
    }

    fn store_report(&self, tool: &PhpSafe, key: ContentKey, report: &str) {
        if let Some(disk) = self.caches.disk() {
            disk.store(
                OUTCOME_NAMESPACE,
                outcome_key(key, tool),
                tool.fingerprint(),
                report.as_bytes(),
            );
        }
    }

    /// The unit of each file as the root was last analyzed, in project
    /// (path) order: from memory, else decoded from the disk AST tier.
    /// `None` when some file's unit is in neither.
    fn previous_units<'a>(
        &self,
        file_hashes: &'a HashMap<String, ContentKey>,
    ) -> Option<Vec<(&'a str, Arc<FileUnit>)>> {
        let mut units = file_hashes
            .iter()
            .map(|(path, &key)| Some((path.as_str(), self.caches.ast().unit_by_key(key)?)))
            .collect::<Option<Vec<_>>>()?;
        units.sort_unstable_by_key(|&(path, _)| path);
        Some(units)
    }

    /// Overlays the request's unsaved editor buffers onto the loaded
    /// projects. A buffer matches a project when its path sits under that
    /// project's requested root (prefix stripped), or names an existing
    /// project-relative file; with a single root, a relative buffer path
    /// may also introduce a brand-new file. Buffers matching nothing are
    /// surfaced as warnings, never silently dropped.
    fn apply_buffers(
        roots: &[String],
        projects: &mut [PluginProject],
        buffers: &[(String, String)],
        warnings: &mut Vec<String>,
    ) {
        let mut used = vec![false; buffers.len()];
        for (pi, project) in projects.iter_mut().enumerate() {
            let root = roots[pi].trim_end_matches('/');
            for (bi, (bpath, content)) in buffers.iter().enumerate() {
                let rel = if let Some(r) = bpath.strip_prefix(&format!("{root}/")) {
                    Some(r.to_owned())
                } else if project.files().iter().any(|f| f.path == *bpath) {
                    Some(bpath.clone())
                } else if roots.len() == 1 && !bpath.starts_with('/') {
                    Some(bpath.trim_start_matches("./").to_owned())
                } else {
                    None
                };
                if let Some(rel) = rel {
                    project.overlay_file(&rel, content);
                    used[bi] = true;
                }
            }
        }
        for (bi, used) in used.iter().enumerate() {
            if !used {
                warnings.push(format!(
                    "buffer `{}` matches no requested root; ignored",
                    buffers[bi].0
                ));
            }
        }
    }

    /// Records what was analyzed for each root, so a later `invalidate`
    /// can diff a reload against it and find the units it was made of.
    fn remember(&self, roots: &[String], projects: &[PluginProject], tools: &[String]) {
        let mut states = self.projects.lock().unwrap();
        for (pi, project) in projects.iter().enumerate() {
            states.insert(
                roots[pi].trim_end_matches('/').to_owned(),
                ProjectState {
                    file_hashes: file_hashes(project),
                    tools: tools.to_vec(),
                },
            );
        }
    }
}

/// The `outcome` entry key of `tool`'s report on the project keyed
/// `project`. Both values name the entry, so tools that share a daemon
/// each keep their own; the envelope still checks the fingerprint.
fn outcome_key(project: ContentKey, tool: &PhpSafe) -> ContentKey {
    let mut bytes = [0u8; 24];
    bytes[..8].copy_from_slice(&project.hash.to_le_bytes());
    bytes[8..16].copy_from_slice(&project.len.to_le_bytes());
    bytes[16..].copy_from_slice(&tool.fingerprint().to_le_bytes());
    ContentKey::of(&bytes)
}

impl Default for AnalysisServer {
    fn default() -> AnalysisServer {
        AnalysisServer::new()
    }
}

impl Service for AnalysisServer {
    fn analyze(&self, ctx: &RequestCtx, request: &AnalyzeRequest) -> Result<Json, String> {
        // Engine-tier cache deltas are attributed to this request by
        // differencing the shared totals; with several concurrent workers
        // the attribution is approximate, never the totals themselves.
        let totals_before = self.caches.totals();
        let mut warnings = Vec::new();
        let jobs = match request.jobs {
            None => self.default_jobs,
            Some(requested) => {
                let (jobs, warning) = effective_jobs(requested);
                warnings.extend(warning);
                jobs
            }
        };
        let tools = self.resolve_tools(&request.tools)?;
        let stage = Instant::now();
        let mut projects = Vec::new();
        for path in &request.paths {
            projects.push(load_project(Path::new(path))?);
        }
        if !request.buffers.is_empty() {
            Self::apply_buffers(
                &request.paths,
                &mut projects,
                &request.buffers,
                &mut warnings,
            );
        }
        // Each project is hashed once; the key serves the telemetry record
        // and both outcome-tier probes and stores.
        let keys: Vec<ContentKey> = projects.iter().map(PluginProject::content_key).collect();
        self.remember(&request.paths, &projects, &request.tools);
        ctx.mark("load_us", stage.elapsed());
        if let Some(key) = keys.first() {
            ctx.set_content_key(format!("{:016x}-{:x}", key.hash, key.len));
        }

        // Path-major report order, mirroring the batch CLI's output order.
        // `None` slots are cache misses to be analyzed below.
        let stage = Instant::now();
        let mut reports: Vec<Vec<Option<String>>> = Vec::new();
        let mut misses = Vec::new();
        for (pi, &key) in keys.iter().enumerate() {
            let mut row = Vec::new();
            for (ti, (_, tool)) in tools.iter().enumerate() {
                let hit = self.cached_report(tool, key);
                if hit.is_none() {
                    misses.push((pi, ti));
                }
                row.push(hit);
            }
            reports.push(row);
        }
        ctx.mark("cache_probe_us", stage.elapsed());
        let fully_cached = misses.is_empty();
        let slots = reports.iter().map(Vec::len).sum::<usize>() as u64;
        ctx.add_cache_hits(slots - misses.len() as u64);
        ctx.add_cache_misses(misses.len() as u64);

        let stage = Instant::now();
        let (outcomes, _stats) = run_ordered(misses.clone(), jobs, |_, (pi, ti)| {
            tools[ti]
                .1
                .analyze_with_caches(&projects[pi], Some(&self.caches))
        });
        for ((pi, ti), outcome) in misses.into_iter().zip(outcomes) {
            let report = outcome
                .to_json()
                .map_err(|e| format!("report serialization failed: {e}"))?;
            self.store_report(tools[ti].1, keys[pi], &report);
            reports[pi][ti] = Some(report);
        }
        ctx.mark("analyze_us", stage.elapsed());
        let totals_after = self.caches.totals();
        let tier_hits = (totals_after.parse.hits + totals_after.summary.hits)
            .saturating_sub(totals_before.parse.hits + totals_before.summary.hits);
        let tier_misses = (totals_after.parse.misses + totals_after.summary.misses)
            .saturating_sub(totals_before.parse.misses + totals_before.summary.misses);
        ctx.add_cache_hits(tier_hits);
        ctx.add_cache_misses(tier_misses);

        let mut items = Vec::new();
        for (pi, row) in reports.into_iter().enumerate() {
            for (ti, report) in row.into_iter().enumerate() {
                // The report is embedded as a JSON *string*, not spliced
                // raw: the rendered reports are multi-line documents and
                // every NDJSON response must stay on one line. A client
                // that unescapes the string recovers the batch CLI's
                // `--json` output byte for byte.
                items.push(Json::Obj(vec![
                    ("path".to_owned(), Json::Str(request.paths[pi].clone())),
                    ("tool".to_owned(), Json::Str(tools[ti].0.to_owned())),
                    (
                        "report".to_owned(),
                        Json::Str(report.expect("every slot filled")),
                    ),
                ]));
            }
        }
        let mut fields = vec![
            ("jobs".to_owned(), Json::Num(jobs as f64)),
            ("fully_cached".to_owned(), Json::Bool(fully_cached)),
            ("reports".to_owned(), Json::Arr(items)),
        ];
        if !warnings.is_empty() {
            fields.push((
                "warnings".to_owned(),
                Json::Arr(warnings.into_iter().map(Json::Str).collect()),
            ));
        }
        Ok(Json::Obj(fields))
    }

    /// Re-checks changed paths against known roots, diffs a fresh load of
    /// each affected project against its remembered per-file hashes,
    /// counts the files the dirty set can affect under the previous or the
    /// current contents, and eagerly re-runs each tool over the whole
    /// project — so the work happens here, off the client's next-`analyze`
    /// latency path, and that analyze is a pure outcome-cache hit.
    /// Unchanged files hit the content-keyed unit/summary tiers; only the
    /// dirty set re-parses, and the reply reports the measured re-parse
    /// count rather than assuming it.
    fn invalidate(&self, ctx: &RequestCtx, request: &InvalidateRequest) -> Result<Json, String> {
        let t0 = Instant::now();
        // Attribute each changed path to the longest known root it falls
        // under; paths the daemon has never analyzed are echoed back as
        // skipped rather than guessed at.
        let mut roots: Vec<String> = Vec::new();
        let mut skipped: Vec<String> = Vec::new();
        {
            let states = self.projects.lock().unwrap();
            for path in &request.paths {
                let p = path.trim_end_matches('/');
                let best = states
                    .keys()
                    .filter(|root| p == root.as_str() || p.starts_with(&format!("{root}/")))
                    .max_by_key(|root| root.len());
                match best {
                    Some(root) => {
                        if !roots.contains(root) {
                            roots.push(root.clone());
                        }
                    }
                    None => skipped.push(path.clone()),
                }
            }
        }

        let mut items = Vec::new();
        let mut total_dirty = 0u64;
        for root in roots {
            let Some(state) = self.projects.lock().unwrap().get(&root).cloned() else {
                continue;
            };
            let project = match load_project(Path::new(&root)) {
                Ok(project) => project,
                Err(message) => {
                    // The root vanished (or became unreadable): forget it
                    // and tell the client, but keep serving other roots.
                    self.projects.lock().unwrap().remove(&root);
                    items.push(Json::Obj(vec![
                        ("path".to_owned(), Json::Str(root.clone())),
                        ("error".to_owned(), Json::Str(message)),
                    ]));
                    continue;
                }
            };
            let new_hashes = file_hashes(&project);
            let mut dirty: Vec<String> = new_hashes
                .iter()
                .filter(|(path, hash)| state.file_hashes.get(*path) != Some(hash))
                .map(|(path, _)| path.clone())
                .collect();
            dirty.extend(
                state
                    .file_hashes
                    .keys()
                    .filter(|path| !new_hashes.contains_key(*path))
                    .cloned(),
            );
            dirty.sort();
            total_dirty += dirty.len() as u64;
            // Callers an edit loses show in the previous contents' units,
            // callers it gains in the current ones. A previous unit found
            // neither in memory nor on disk degrades to "assume
            // everything", never to a stale answer.
            let parse_misses_before = self.caches.totals().parse.misses;
            let affected: Vec<String> = match self.previous_units(&state.file_hashes) {
                Some(old) => {
                    // Unchanged contents share their unit; only changed
                    // contents are looked up, and parsed if new.
                    let known: HashMap<ContentKey, &Arc<FileUnit>> = old
                        .iter()
                        .map(|(path, unit)| (state.file_hashes[*path], unit))
                        .collect();
                    let unit = |f: &SourceFile, key| match known.get(&key) {
                        Some(&unit) => Arc::clone(unit),
                        None => self.caches.ast().unit(&f.content, key),
                    };
                    let files = project.files().iter().zip(project.file_keys());
                    let new: Vec<(&str, Arc<FileUnit>)> = files
                        .map(|(f, &key)| (f.path.as_str(), unit(f, key)))
                        .collect();
                    affected_files(&old, &new, &dirty)
                }
                None => project.files().iter().map(|f| f.path.clone()).collect(),
            };
            phpsafe_obs::count("incremental.files_dirty", dirty.len() as u64);
            phpsafe_obs::count("depgraph.invalidated", affected.len() as u64);

            let key = project.content_key();
            let tools = self.resolve_tools(&state.tools)?;
            let mut reanalyzed = false;
            for (_, tool) in &tools {
                if self.cached_report(tool, key).is_none() {
                    let outcome = tool.analyze_with_caches(&project, Some(&self.caches));
                    let report = outcome
                        .to_json()
                        .map_err(|e| format!("report serialization failed: {e}"))?;
                    self.store_report(tool, key, &report);
                    reanalyzed = true;
                }
            }
            let reparsed = self
                .caches
                .totals()
                .parse
                .misses
                .saturating_sub(parse_misses_before);
            phpsafe_obs::count("incremental.files_reanalyzed", reparsed);

            self.projects.lock().unwrap().insert(
                root.clone(),
                ProjectState {
                    file_hashes: new_hashes,
                    tools: state.tools.clone(),
                },
            );
            items.push(Json::Obj(vec![
                ("path".to_owned(), Json::Str(root.clone())),
                ("files".to_owned(), Json::Num(project.files().len() as f64)),
                ("dirty".to_owned(), Json::Num(dirty.len() as f64)),
                ("affected".to_owned(), Json::Num(affected.len() as f64)),
                ("reparsed".to_owned(), Json::Num(reparsed as f64)),
                ("reanalyzed".to_owned(), Json::Bool(reanalyzed)),
            ]));
        }
        ctx.mark_count("dirty_files", total_dirty);
        ctx.mark("invalidate_us", t0.elapsed());
        Ok(Json::Obj(vec![
            ("projects".to_owned(), Json::Arr(items)),
            (
                "skipped".to_owned(),
                Json::Arr(skipped.into_iter().map(Json::Str).collect()),
            ),
        ]))
    }

    fn status(&self) -> Vec<(String, Json)> {
        let totals = self.caches.totals();
        vec![
            (
                "tools".to_owned(),
                Json::Arr(
                    self.tools
                        .iter()
                        .map(|(name, _)| Json::Str(name.clone()))
                        .collect(),
                ),
            ),
            (
                "vuln_classes".to_owned(),
                Json::Arr(
                    // The default tool (first registered) defines the
                    // loaded profile's class registry.
                    self.tools
                        .first()
                        .map(|(_, t)| t.config().supported_classes())
                        .unwrap_or_default()
                        .into_iter()
                        .map(|c| Json::Str(c.slug().to_owned()))
                        .collect(),
                ),
            ),
            (
                "cache_dir".to_owned(),
                match self.caches.disk() {
                    Some(disk) => Json::Str(disk.root().display().to_string()),
                    None => Json::Null,
                },
            ),
            (
                "ast_entries".to_owned(),
                Json::Num(self.caches.ast().len() as f64),
            ),
            ("parse_hits".to_owned(), Json::Num(totals.parse.hits as f64)),
            (
                "summary_hits".to_owned(),
                Json::Num(totals.summary.hits as f64),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_plugin(root: &Path, body: &str) {
        std::fs::create_dir_all(root).unwrap();
        std::fs::write(root.join("index.php"), body).unwrap();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("phpsafe-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const VULN: &str = r#"<?php echo $_GET['q']; ?>"#;

    fn request(paths: Vec<String>) -> AnalyzeRequest {
        AnalyzeRequest {
            paths,
            tools: Vec::new(),
            jobs: Some(1),
            buffers: Vec::new(),
        }
    }

    #[test]
    fn daemon_report_matches_direct_analysis() {
        let dir = temp_dir("direct");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);

        let server = AnalysisServer::new();
        let ctx = RequestCtx::detached();
        let result = server
            .analyze(&ctx, &request(vec![plugin.display().to_string()]))
            .unwrap();
        let reports = result.get("reports").and_then(Json::as_arr).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].get("tool").and_then(Json::as_str),
            Some("phpSAFE")
        );
        let direct = PhpSafe::new()
            .analyze(&load_project(&plugin).unwrap())
            .to_json()
            .unwrap();
        assert_eq!(
            reports[0].get("report"),
            Some(&Json::Str(direct)),
            "daemon report must be byte-identical to a direct run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_lists_the_profile_vuln_classes() {
        let server = AnalysisServer::new();
        let status = server.status();
        let classes = status
            .iter()
            .find(|(k, _)| k == "vuln_classes")
            .and_then(|(_, v)| v.as_arr())
            .expect("vuln_classes in status");
        let slugs: Vec<&str> = classes.iter().filter_map(Json::as_str).collect();
        let expected: Vec<&str> = taint_config::VulnClass::ALL
            .iter()
            .map(|c| c.slug())
            .collect();
        assert_eq!(slugs, expected, "default WordPress profile supports all");
    }

    #[test]
    fn analyze_deposits_request_telemetry_into_the_ctx() {
        let dir = temp_dir("telemetry");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);
        let server = AnalysisServer::new();
        let ctx = RequestCtx::detached();
        server
            .analyze(&ctx, &request(vec![plugin.display().to_string()]))
            .unwrap();
        let marks: Vec<&str> = ctx.marks().iter().map(|(name, _)| *name).collect();
        assert_eq!(
            marks,
            ["load_us", "cache_probe_us", "analyze_us"],
            "every pipeline stage must leave a mark"
        );
        let key = ctx.content_key().expect("content key recorded");
        let expect = load_project(&plugin).unwrap().content_key();
        assert_eq!(key, format!("{:016x}-{:x}", expect.hash, expect.len));
        // No disk tier here: the one slot is an outcome-cache miss.
        assert!(ctx.cache_misses() >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn outcome_cache_round_trips_across_servers() {
        let dir = temp_dir("outcome");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);
        let cache_dir = dir.join("cache");
        let req = request(vec![plugin.display().to_string()]);

        let open = || {
            let disk = Arc::new(phpsafe_engine::DiskCache::open(&cache_dir).unwrap());
            AnalysisServer::with_caches(EngineCaches::with_disk(disk))
        };
        let cold = open().analyze(&RequestCtx::detached(), &req).unwrap();
        assert_eq!(cold.get("fully_cached"), Some(&Json::Bool(false)));

        // A fresh server process: outcome comes straight from disk.
        let warm_server = open();
        let warm_ctx = RequestCtx::detached();
        let warm = warm_server.analyze(&warm_ctx, &req).unwrap();
        assert_eq!(warm.get("fully_cached"), Some(&Json::Bool(true)));
        assert_eq!(
            cold.get("reports"),
            warm.get("reports"),
            "warm-restart reply must be byte-identical"
        );

        // Edited content re-analyzes (fingerprint changed).
        write_plugin(&plugin, "<?php echo htmlentities($_GET['q']); ?>");
        let edited = warm_server.analyze(&RequestCtx::detached(), &req).unwrap();
        assert_eq!(edited.get("fully_cached"), Some(&Json::Bool(false)));
        assert_ne!(cold.get("reports"), edited.get("reports"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parent_layout_outcome_entries_are_evicted_and_reanalyzed() {
        let dir = temp_dir("parent-layout");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);
        let cache_dir = dir.join("cache");
        let req = request(vec![plugin.display().to_string()]);

        // An envelope in the layout before the build stamp (format word 2,
        // crate version `0.1.0`) holding a report no analysis produces,
        // where the outcome for this project belongs.
        let project = load_project(&plugin).unwrap().content_key();
        let key = outcome_key(project, &PhpSafe::new());
        let payload = br#"{"stale":true}"#;
        let mut sealed = b"PSC1".to_vec();
        sealed.extend_from_slice(&2u32.to_le_bytes());
        sealed.push(5);
        sealed.extend_from_slice(b"0.1.0");
        sealed.push(OUTCOME_NAMESPACE.len() as u8);
        sealed.extend_from_slice(OUTCOME_NAMESPACE.as_bytes());
        sealed.extend_from_slice(&PhpSafe::new().fingerprint().to_le_bytes());
        sealed.extend_from_slice(&key.hash.to_le_bytes());
        sealed.extend_from_slice(&key.len.to_le_bytes());
        sealed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        sealed.extend_from_slice(&phpsafe_engine::digest64(payload).to_le_bytes());
        sealed.extend_from_slice(payload);
        let ns = cache_dir.join(OUTCOME_NAMESPACE);
        std::fs::create_dir_all(&ns).unwrap();
        std::fs::write(
            ns.join(format!("{:016x}-{:x}.psc", key.hash, key.len)),
            &sealed,
        )
        .unwrap();

        let disk = Arc::new(phpsafe_engine::DiskCache::open(&cache_dir).unwrap());
        let server = AnalysisServer::with_caches(EngineCaches::with_disk(Arc::clone(&disk)));
        let reply = server.analyze(&RequestCtx::detached(), &req).unwrap();
        assert_eq!(reply.get("fully_cached"), Some(&Json::Bool(false)));
        let c = disk.counters();
        assert_eq!((c.evicted, c.corrupt), (1, 0), "{c:?}");
        let cold = AnalysisServer::new()
            .analyze(&RequestCtx::detached(), &req)
            .unwrap();
        assert_eq!(reply.get("reports"), cold.get("reports"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every `.psc` entry under `root`.
    fn entries(root: &Path) -> Vec<std::path::PathBuf> {
        let mut out = Vec::new();
        for ns in std::fs::read_dir(root).unwrap() {
            for f in std::fs::read_dir(ns.unwrap().path()).unwrap() {
                out.push(f.unwrap().path());
            }
        }
        out
    }

    #[test]
    fn entries_another_build_wrote_never_answer() {
        let dir = temp_dir("other-build");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);
        let cache_dir = dir.join("cache");
        let req = request(vec![plugin.display().to_string()]);
        let open = || Arc::new(phpsafe_engine::DiskCache::open(&cache_dir).unwrap());
        AnalysisServer::with_caches(EngineCaches::with_disk(open()))
            .analyze(&RequestCtx::detached(), &req)
            .unwrap();

        // Another build's entries differ from this build's only in the
        // stamp that follows the magic.
        let written = entries(&cache_dir);
        let mut namespaces: Vec<_> = written
            .iter()
            .map(|p| p.parent().unwrap().file_name().unwrap().to_owned())
            .collect();
        namespaces.dedup();
        assert_eq!(namespaces.len(), 2, "ast and outcome: {written:?}");
        for path in &written {
            let mut bytes = std::fs::read(path).unwrap();
            for b in &mut bytes[4..12] {
                *b ^= 0x5a;
            }
            std::fs::write(path, bytes).unwrap();
        }

        let disk = open();
        let server = AnalysisServer::with_caches(EngineCaches::with_disk(Arc::clone(&disk)));
        let reply = server.analyze(&RequestCtx::detached(), &req).unwrap();
        assert_eq!(reply.get("fully_cached"), Some(&Json::Bool(false)));
        let c = disk.counters();
        assert_eq!(c.hits, 0, "{c:?}");
        assert_eq!((c.evicted, c.corrupt), (written.len() as u64, 0), "{c:?}");
        let cold = AnalysisServer::new()
            .analyze(&RequestCtx::detached(), &req)
            .unwrap();
        assert_eq!(reply.get("reports"), cold.get("reports"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_tools_and_bad_paths_are_reported() {
        let dir = temp_dir("errors");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);
        let server = AnalysisServer::new();
        let bad_tool = server.analyze(
            &RequestCtx::detached(),
            &AnalyzeRequest {
                paths: vec![plugin.display().to_string()],
                tools: vec!["nonesuch".into()],
                jobs: Some(1),
                buffers: Vec::new(),
            },
        );
        assert!(bad_tool.unwrap_err().contains("unknown tool `nonesuch`"));
        let bad_path = server.analyze(
            &RequestCtx::detached(),
            &request(vec![dir.join("missing").display().to_string()]),
        );
        assert!(bad_path.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn write_file(root: &Path, rel: &str, body: &str) {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, body).unwrap();
    }

    #[test]
    fn invalidate_rewarm_makes_next_analyze_fully_cached() {
        let dir = temp_dir("invalidate");
        let plugin = dir.join("plugin");
        write_file(
            &plugin,
            "main.php",
            "<?php require 'lib.php'; echo sanitize($_GET['q']);",
        );
        write_file(
            &plugin,
            "lib.php",
            "<?php function sanitize($s) { return htmlentities($s); }",
        );
        write_file(&plugin, "other.php", "<?php $x = 1;");
        let cache_dir = dir.join("cache");
        let disk = Arc::new(phpsafe_engine::DiskCache::open(&cache_dir).unwrap());
        let server = AnalysisServer::with_caches(EngineCaches::with_disk(disk));
        let req = request(vec![plugin.display().to_string()]);
        server.analyze(&RequestCtx::detached(), &req).unwrap();

        // Edit the library on disk, then tell the daemon about it.
        write_file(
            &plugin,
            "lib.php",
            "<?php function sanitize($s) { return $s; }",
        );
        let ctx = RequestCtx::detached();
        let result = server
            .invalidate(
                &ctx,
                &InvalidateRequest {
                    paths: vec![plugin.join("lib.php").display().to_string()],
                },
            )
            .unwrap();
        let projects = result.get("projects").and_then(Json::as_arr).unwrap();
        assert_eq!(projects.len(), 1);
        let p = &projects[0];
        assert_eq!(p.get("files"), Some(&Json::Num(3.0)));
        assert_eq!(p.get("dirty"), Some(&Json::Num(1.0)));
        // main.php requires lib.php; other.php is untouched by the edit.
        assert_eq!(p.get("affected"), Some(&Json::Num(2.0)));
        assert_eq!(p.get("reanalyzed"), Some(&Json::Bool(true)));
        // Only the edited file re-parsed; the rest hit the AST cache.
        assert_eq!(p.get("reparsed"), Some(&Json::Num(1.0)));
        let marks = ctx.marks();
        assert!(marks
            .iter()
            .any(|(name, n)| *name == "dirty_files" && *n == 1));

        // The re-warm already stored the new outcome: the client's next
        // analyze is a pure cache hit, byte-identical to a cold run.
        let warm = server.analyze(&RequestCtx::detached(), &req).unwrap();
        assert_eq!(warm.get("fully_cached"), Some(&Json::Bool(true)));
        let cold = AnalysisServer::new()
            .analyze(&RequestCtx::detached(), &req)
            .unwrap();
        assert_eq!(warm.get("reports"), cold.get("reports"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `a.php` calls `foo()`; an edit to `d.php` that declares `foo`
    /// affects `a.php` whether the declaration is new or was there before.
    #[test]
    fn invalidate_counts_callers_an_edit_gains() {
        let dir = temp_dir("gained-caller");
        let plugin = dir.join("plugin");
        let req = request(vec![plugin.display().to_string()]);
        let d_php = plugin.join("d.php").display().to_string();
        for before in ["<?php echo 1;", "<?php function foo() { return 1; }"] {
            write_file(&plugin, "a.php", "<?php echo foo();");
            write_file(&plugin, "d.php", before);
            let server = AnalysisServer::new();
            server.analyze(&RequestCtx::detached(), &req).unwrap();
            write_file(&plugin, "d.php", "<?php function foo() { return 2; }");
            let paths = vec![d_php.clone()];
            let result = server
                .invalidate(&RequestCtx::detached(), &InvalidateRequest { paths })
                .unwrap();
            let p = &result.get("projects").and_then(Json::as_arr).unwrap()[0];
            assert_eq!(p.get("dirty"), Some(&Json::Num(1.0)), "{before}");
            assert_eq!(p.get("affected"), Some(&Json::Num(2.0)), "{before}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_skips_unknown_paths_and_forgets_vanished_roots() {
        let dir = temp_dir("invalidate-skip");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);
        let server = AnalysisServer::new();
        // Never-analyzed path: skipped, not guessed at.
        let result = server
            .invalidate(
                &RequestCtx::detached(),
                &InvalidateRequest {
                    paths: vec![plugin.join("index.php").display().to_string()],
                },
            )
            .unwrap();
        assert_eq!(
            result.get("projects").and_then(Json::as_arr).unwrap().len(),
            0
        );
        assert_eq!(
            result.get("skipped").and_then(Json::as_arr).unwrap().len(),
            1
        );

        // Analyzed, then deleted: reported as an error, state dropped.
        server
            .analyze(
                &RequestCtx::detached(),
                &request(vec![plugin.display().to_string()]),
            )
            .unwrap();
        std::fs::remove_dir_all(&plugin).unwrap();
        let result = server
            .invalidate(
                &RequestCtx::detached(),
                &InvalidateRequest {
                    paths: vec![plugin.display().to_string()],
                },
            )
            .unwrap();
        let projects = result.get("projects").and_then(Json::as_arr).unwrap();
        assert_eq!(projects.len(), 1);
        assert!(projects[0].get("error").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dirty_buffers_overlay_matches_a_saved_edit() {
        let dir = temp_dir("buffers");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);
        let edited = "<?php echo htmlentities($_GET['q']); ?>";

        // Analyze with an unsaved buffer overlaying index.php (absolute
        // path under the root) and adding a brand-new relative file.
        let server = AnalysisServer::new();
        let overlaid = server
            .analyze(
                &RequestCtx::detached(),
                &AnalyzeRequest {
                    paths: vec![plugin.display().to_string()],
                    tools: Vec::new(),
                    jobs: Some(1),
                    buffers: vec![
                        (
                            plugin.join("index.php").display().to_string(),
                            edited.to_owned(),
                        ),
                        ("new.php".to_owned(), VULN.to_owned()),
                    ],
                },
            )
            .unwrap();

        // Reference: the same edit saved to disk, loaded cold. Same
        // directory name, so the project fingerprint inputs match.
        let alt = dir.join("alt").join("plugin");
        write_file(&alt, "index.php", edited);
        write_file(&alt, "new.php", VULN);
        let saved = AnalysisServer::new()
            .analyze(
                &RequestCtx::detached(),
                &request(vec![alt.display().to_string()]),
            )
            .unwrap();
        let report_of = |v: &Json| {
            v.get("reports").and_then(Json::as_arr).unwrap()[0]
                .get("report")
                .cloned()
                .unwrap()
        };
        assert_eq!(
            report_of(&overlaid),
            report_of(&saved),
            "overlaying a buffer must be indistinguishable from saving it"
        );

        // A buffer matching nothing surfaces as a warning.
        let stray = server
            .analyze(
                &RequestCtx::detached(),
                &AnalyzeRequest {
                    paths: vec![plugin.display().to_string()],
                    tools: Vec::new(),
                    jobs: Some(1),
                    buffers: vec![("/nowhere/else.php".to_owned(), String::new())],
                },
            )
            .unwrap();
        let warnings = stray.get("warnings").and_then(Json::as_arr).unwrap();
        assert!(
            warnings
                .iter()
                .any(|w| { w.as_str().is_some_and(|s| s.contains("/nowhere/else.php")) }),
            "unmatched buffers must warn: {warnings:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_overrides_are_clamped_with_warning() {
        let dir = temp_dir("jobs");
        let plugin = dir.join("plugin");
        write_plugin(&plugin, VULN);
        let server = AnalysisServer::new();
        let result = server
            .analyze(
                &RequestCtx::detached(),
                &AnalyzeRequest {
                    paths: vec![plugin.display().to_string()],
                    tools: Vec::new(),
                    jobs: Some(0),
                    buffers: Vec::new(),
                },
            )
            .unwrap();
        let warnings = result.get("warnings").and_then(Json::as_arr).unwrap();
        assert!(!warnings.is_empty(), "--jobs 0 must surface a warning");
        let jobs = result.get("jobs").and_then(Json::as_num).unwrap();
        assert!(jobs >= 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
