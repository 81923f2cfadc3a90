//! Runs the three tools over the full corpus (methodology step 4),
//! verifies every report with the oracle (step 5), and aggregates the
//! per-tool, per-version cells the tables are built from.

use crate::metrics::{Metrics, RecallMode};
use crate::oracle::{verify, MatchResult};
use phpsafe::{AnalysisOutcome, EngineCaches, FileFailure, Vulnerability};
use phpsafe_baselines::paper_tools;
use phpsafe_corpus::{Corpus, GroundTruthEntry, Version};
use phpsafe_engine::run_ordered;
use phpsafe_obs::Snapshot;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};
use taint_config::VulnClass;

/// The three tool names, in the paper's column order.
pub const TOOLS: [&str; 3] = ["phpSAFE", "RIPS", "Pixy"];

/// Aggregated results for one (tool, version) pair across all 35 plugins.
#[derive(Debug, Clone)]
pub struct ToolCell {
    /// Tool name.
    pub tool: String,
    /// Plugin snapshot version.
    pub version: Version,
    /// Ground-truth ids confirmed detected.
    pub detected: HashSet<String>,
    /// Reports that matched no ground truth.
    pub false_positives: Vec<Vulnerability>,
    /// Wall-clock seconds to analyze all 35 plugins.
    pub seconds: f64,
    /// Files failed for resource limits (phpSAFE's include blow-ups).
    pub failed_resource: usize,
    /// Files rejected by the front end (Pixy's OOP/closure failures).
    pub failed_unsupported: usize,
    /// Total abstract work units.
    pub work_units: u64,
}

/// The full evaluation: corpus + six tool cells.
#[derive(Debug, Clone)]
pub struct Evaluation {
    corpus: Corpus,
    cells: Vec<ToolCell>,
}

impl Evaluation {
    /// Generates the corpus and runs all three tools on both versions.
    pub fn run() -> Evaluation {
        Self::run_with(Corpus::generate())
    }

    /// Runs all tools over a prepared corpus, serially and uncached — the
    /// Table III timing methodology (each tool meets each plugin cold).
    pub fn run_with(corpus: Corpus) -> Evaluation {
        let mut cells = Vec::new();
        for tool in paper_tools() {
            for version in Version::ALL {
                // The clock covers only the analyses; oracle verification
                // is evaluation bookkeeping the paper's timings exclude.
                let start = Instant::now();
                let outcomes: Vec<AnalysisOutcome> = corpus
                    .plugins()
                    .iter()
                    .map(|plugin| tool.analyze(plugin.project(version)))
                    .collect();
                let seconds = start.elapsed().as_secs_f64();
                let mut cell = Self::fold_cell(&corpus, tool.name(), version, &outcomes);
                cell.seconds = seconds;
                cells.push(cell);
            }
        }
        Evaluation { corpus, cells }
    }

    /// Generates the corpus and runs the engine-scheduled evaluation on
    /// `jobs` workers.
    pub fn run_engine(jobs: usize) -> (Evaluation, Snapshot) {
        Self::run_engine_with(Corpus::generate(), jobs)
    }

    /// Runs all tools over a prepared corpus through the
    /// [`phpsafe_engine`] worker pool, sharing one parse cache across the
    /// 3 tools × 2 versions and a per-tool summary cache across plugins
    /// and versions.
    ///
    /// Jobs are `(tool, version, plugin)` triples; results are joined in
    /// submission order, so the produced cells — and everything rendered
    /// from them except wall-clock seconds — are identical to
    /// [`Evaluation::run_with`] at any worker count. Each cell's `seconds`
    /// is the summed analysis time of its 35 jobs (per-cell wall clock is
    /// meaningless when cells interleave across workers).
    ///
    /// The returned [`Snapshot`] is the observability delta of this run:
    /// `engine.*` scheduler counters, `cache.*` hit/miss counters and the
    /// `stage.*` timing histograms. It is empty unless
    /// [`phpsafe_obs::set_enabled`] was switched on.
    pub fn run_engine_with(corpus: Corpus, jobs: usize) -> (Evaluation, Snapshot) {
        Self::run_engine_cached(corpus, jobs, &EngineCaches::new())
    }

    /// [`Evaluation::run_engine_with`] against caller-owned caches —
    /// typically `EngineCaches::with_disk` so a repeated run warm-starts
    /// from persisted ASTs. Cells (and therefore every rendered table) are
    /// byte-identical to the cold run; only timing changes.
    pub fn run_engine_cached(
        corpus: Corpus,
        jobs: usize,
        caches: &EngineCaches,
    ) -> (Evaluation, Snapshot) {
        let tools = paper_tools();
        let before = phpsafe_obs::snapshot();

        // Submission order = cell order = the serial loop's order.
        let mut specs: Vec<(usize, Version, usize)> = Vec::new();
        for t in 0..tools.len() {
            for version in Version::ALL {
                for p in 0..corpus.plugins().len() {
                    specs.push((t, version, p));
                }
            }
        }

        let (results, _pool) = run_ordered(specs, jobs, |_, (t, version, p)| {
            let plugin = &corpus.plugins()[p];
            let started = Instant::now();
            let outcome = tools[t].analyze_cached(plugin.project(version), caches);
            (outcome, started.elapsed())
        });

        caches.record();

        // Verification runs after the pool has drained — outside both the
        // per-cell timings and the engine's analyze stage. The `stage.eval`
        // span covers exactly this oracle/fold step.
        let span_eval = phpsafe_obs::span!("stage.eval");
        let mut cells = Vec::new();
        let mut results = results.into_iter();
        for tool in &tools {
            for version in Version::ALL {
                let mut outcomes = Vec::with_capacity(corpus.plugins().len());
                let mut analyze_time = Duration::ZERO;
                for _ in 0..corpus.plugins().len() {
                    let (outcome, spent) = results.next().expect("one result per job");
                    outcomes.push(outcome);
                    analyze_time += spent;
                }
                let mut cell = Self::fold_cell(&corpus, tool.name(), version, &outcomes);
                cell.seconds = analyze_time.as_secs_f64();
                cells.push(cell);
            }
        }
        drop(span_eval);

        let snapshot = phpsafe_obs::snapshot().since(&before);
        (Evaluation { corpus, cells }, snapshot)
    }

    /// Oracle-verifies one (tool, version) run and aggregates its cell.
    /// `outcomes` must be in corpus plugin order. Leaves `seconds` at zero
    /// for the caller to fill in.
    fn fold_cell(
        corpus: &Corpus,
        tool: &str,
        version: Version,
        outcomes: &[AnalysisOutcome],
    ) -> ToolCell {
        let mut cell = ToolCell {
            tool: tool.to_string(),
            version,
            detected: HashSet::new(),
            false_positives: Vec::new(),
            seconds: 0.0,
            failed_resource: 0,
            failed_unsupported: 0,
            work_units: 0,
        };
        for (plugin, outcome) in corpus.plugins().iter().zip(outcomes) {
            let truth: Vec<&GroundTruthEntry> = plugin.truth_for(version).collect();
            let MatchResult {
                detected,
                false_positives,
            } = verify(outcome, &truth);
            cell.detected.extend(detected);
            cell.false_positives.extend(false_positives);
            for f in &outcome.files {
                match &f.failure {
                    Some(FileFailure::ResourceLimit(_)) => cell.failed_resource += 1,
                    Some(FileFailure::Unsupported(_)) => cell.failed_unsupported += 1,
                    None => {}
                }
            }
            cell.work_units += outcome.stats.work_units;
        }
        cell
    }

    /// The corpus analyzed.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// All six cells.
    pub fn cells(&self) -> &[ToolCell] {
        &self.cells
    }

    /// The cell for a tool/version.
    ///
    /// # Panics
    ///
    /// Panics if `tool` is not one of [`TOOLS`].
    pub fn cell(&self, tool: &str, version: Version) -> &ToolCell {
        self.cells
            .iter()
            .find(|c| c.tool == tool && c.version == version)
            .unwrap_or_else(|| panic!("no cell for {tool}/{version:?}"))
    }

    /// Ground-truth lookup by id for a version.
    pub fn truth_map(&self, version: Version) -> HashMap<&str, &GroundTruthEntry> {
        self.corpus
            .truth_for(version)
            .into_iter()
            .map(|t| (t.id.as_str(), t))
            .collect()
    }

    /// Confirmed findings of all tools combined (the denominator of the
    /// paper's optimistic recall, and Fig. 2's universe).
    pub fn union_detected(&self, version: Version) -> HashSet<&str> {
        let mut u = HashSet::new();
        for c in self.cells.iter().filter(|c| c.version == version) {
            u.extend(c.detected.iter().map(|s| s.as_str()));
        }
        u
    }

    /// Detected ids of a tool restricted to a vulnerability class.
    fn detected_of_class<'a>(
        &'a self,
        tool: &str,
        version: Version,
        class: Option<VulnClass>,
    ) -> HashSet<&'a str> {
        let truth = self.truth_map(version);
        self.cell(tool, version)
            .detected
            .iter()
            .filter(|id| match class {
                None => true,
                Some(c) => truth
                    .get(id.as_str())
                    .map(|t| t.class == c)
                    .unwrap_or(false),
            })
            .map(|s| s.as_str())
            .collect()
    }

    /// Computes a Table I metrics cell.
    pub fn metrics(
        &self,
        tool: &str,
        version: Version,
        class: Option<VulnClass>,
        mode: RecallMode,
    ) -> Metrics {
        let truth = self.truth_map(version);
        let mine = self.detected_of_class(tool, version, class);
        let fp = self
            .cell(tool, version)
            .false_positives
            .iter()
            .filter(|v| class.map(|c| v.class == c).unwrap_or(true))
            .count();
        let missed = match mode {
            RecallMode::PaperOptimistic => {
                let mut union: HashSet<&str> = HashSet::new();
                for t in TOOLS {
                    union.extend(self.detected_of_class(t, version, class));
                }
                union.difference(&mine).count()
            }
            RecallMode::FullGroundTruth => truth
                .values()
                .filter(|t| class.map(|c| t.class == c).unwrap_or(true))
                .filter(|t| !mine.contains(t.id.as_str()))
                .count(),
        };
        Metrics::new(mine.len(), fp, missed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A single full evaluation shared by the assertions below (running the
    // 3×2 matrix once keeps the test suite fast).
    fn eval() -> &'static Evaluation {
        use std::sync::OnceLock;
        static EVAL: OnceLock<Evaluation> = OnceLock::new();
        EVAL.get_or_init(Evaluation::run)
    }

    #[test]
    fn six_cells_produced() {
        assert_eq!(eval().cells().len(), 6);
    }

    #[test]
    fn phpsafe_detects_most_in_both_versions() {
        let e = eval();
        for v in Version::ALL {
            let p = e.cell("phpSAFE", v).detected.len();
            let r = e.cell("RIPS", v).detected.len();
            let x = e.cell("Pixy", v).detected.len();
            assert!(p > r && r > x, "{v:?}: phpSAFE {p} > RIPS {r} > Pixy {x}");
        }
    }

    #[test]
    fn only_phpsafe_finds_sqli_true_positives() {
        let e = eval();
        for v in Version::ALL {
            let p = e.metrics(
                "phpSAFE",
                v,
                Some(VulnClass::Sqli),
                RecallMode::FullGroundTruth,
            );
            let r = e.metrics(
                "RIPS",
                v,
                Some(VulnClass::Sqli),
                RecallMode::FullGroundTruth,
            );
            let x = e.metrics(
                "Pixy",
                v,
                Some(VulnClass::Sqli),
                RecallMode::FullGroundTruth,
            );
            assert!(p.tp >= 8, "phpSAFE SQLi TPs {v:?}: {}", p.tp);
            assert_eq!(r.tp, 0, "RIPS finds no SQLi");
            assert_eq!(x.tp, 0, "Pixy finds no SQLi");
        }
    }

    #[test]
    fn precision_ranking_matches_paper() {
        let e = eval();
        for v in Version::ALL {
            let p = e
                .metrics("phpSAFE", v, None, RecallMode::PaperOptimistic)
                .precision()
                .expect("phpSAFE precision");
            let r = e
                .metrics("RIPS", v, None, RecallMode::PaperOptimistic)
                .precision()
                .expect("RIPS precision");
            let x = e
                .metrics("Pixy", v, None, RecallMode::PaperOptimistic)
                .precision()
                .expect("Pixy precision");
            assert!(p > r, "{v:?} precision phpSAFE {p:.2} > RIPS {r:.2}");
            assert!(r > x, "{v:?} precision RIPS {r:.2} > Pixy {x:.2}");
            assert!(x < 0.45, "Pixy precision is low: {x:.2}");
        }
    }

    #[test]
    fn pixy_detection_collapses_in_2014() {
        let e = eval();
        let p12 = e.cell("Pixy", Version::V2012).detected.len();
        let p14 = e.cell("Pixy", Version::V2014).detected.len();
        assert!(p14 < p12, "Pixy 2014 ({p14}) must fall below 2012 ({p12})");
    }

    #[test]
    fn rips_grows_sharply_in_2014() {
        let e = eval();
        let r12 = e.cell("RIPS", Version::V2012).detected.len();
        let r14 = e.cell("RIPS", Version::V2014).detected.len();
        assert!(
            r14 as f64 / r12 as f64 > 1.5,
            "RIPS detections should grow sharply: {r12} -> {r14}"
        );
    }

    #[test]
    fn robustness_shape() {
        let e = eval();
        // phpSAFE: 1 failed file in 2012, 3 in 2014 (the include monster).
        assert_eq!(e.cell("phpSAFE", Version::V2012).failed_resource, 1);
        assert_eq!(e.cell("phpSAFE", Version::V2014).failed_resource, 3);
        // RIPS completes everything.
        assert_eq!(e.cell("RIPS", Version::V2012).failed_resource, 0);
        assert_eq!(e.cell("RIPS", Version::V2014).failed_resource, 0);
        assert_eq!(e.cell("RIPS", Version::V2012).failed_unsupported, 0);
        // Pixy fails dozens of OOP files and errors on 2014 closures.
        let px12 = e.cell("Pixy", Version::V2012).failed_unsupported;
        let px14 = e.cell("Pixy", Version::V2014).failed_unsupported;
        assert!(px12 >= 20, "Pixy 2012 failures: {px12}");
        assert!(px14 > px12, "2014 adds closure errors: {px12} -> {px14}");
    }

    #[test]
    fn union_grows_about_fifty_percent() {
        let e = eval();
        let u12 = e.union_detected(Version::V2012).len();
        let u14 = e.union_detected(Version::V2014).len();
        let growth = u14 as f64 / u12 as f64;
        assert!(
            (1.3..=1.8).contains(&growth),
            "distinct confirmed growth {u12} -> {u14} ({growth:.2}x)"
        );
    }

    #[test]
    fn only_phpsafe_finds_oop_vulns() {
        let e = eval();
        for v in Version::ALL {
            let truth = e.truth_map(v);
            let oop_count = |tool: &str| {
                e.cell(tool, v)
                    .detected
                    .iter()
                    .filter(|id| truth.get(id.as_str()).map(|t| t.oop).unwrap_or(false))
                    .count()
            };
            assert_eq!(oop_count("RIPS"), 0, "{v:?}");
            assert_eq!(oop_count("Pixy"), 0, "{v:?}");
            assert!(
                oop_count("phpSAFE") >= 140,
                "{v:?}: {}",
                oop_count("phpSAFE")
            );
        }
    }
}
