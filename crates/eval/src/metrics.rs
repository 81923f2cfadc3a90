//! Detection metrics (§IV.A): TP / FP / FN, Precision, Recall and F-score,
//! including the paper's *optimistic* FN rule — the false negatives of a
//! tool are the confirmed vulnerabilities *other tools* found that it
//! missed, because no exhaustive manual audit existed.

/// How false negatives are determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecallMode {
    /// The paper's rule: FN = (union of all tools' confirmed findings) −
    /// (this tool's confirmed findings).
    PaperOptimistic,
    /// FN against the full generator ground truth (available only because
    /// our "expert" is exact).
    FullGroundTruth,
}

/// Classification metrics for one (tool, version, class) cell of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// False negatives (per the chosen [`RecallMode`]).
    pub fn_: usize,
}

impl Metrics {
    /// Builds a metrics cell.
    pub fn new(tp: usize, fp: usize, fn_: usize) -> Self {
        Metrics { tp, fp, fn_ }
    }

    /// Precision = TP / (TP + FP); `None` when the tool reported nothing
    /// (the paper prints `-`).
    pub fn precision(&self) -> Option<f64> {
        let d = self.tp + self.fp;
        (d > 0).then(|| self.tp as f64 / d as f64)
    }

    /// Recall = TP / (TP + FN); `None` when there is nothing to find.
    pub fn recall(&self) -> Option<f64> {
        let d = self.tp + self.fn_;
        (d > 0).then(|| self.tp as f64 / d as f64)
    }

    /// F-score = harmonic mean of precision and recall; `None` when either
    /// is undefined or both are zero.
    pub fn f_score(&self) -> Option<f64> {
        let p = self.precision()?;
        let r = self.recall()?;
        if p + r == 0.0 {
            return None;
        }
        Some(2.0 * p * r / (p + r))
    }

    /// Adds another cell (e.g. XSS + SQLi = Global).
    pub fn merged(self, other: Metrics) -> Metrics {
        Metrics {
            tp: self.tp + other.tp,
            fp: self.fp + other.fp,
            fn_: self.fn_ + other.fn_,
        }
    }
}

/// Formats an optional ratio as a percentage the way the paper's tables do
/// (`83%`, or `-` when undefined).
pub fn pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.0}%", x * 100.0),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_2012_phpsafe_xss_cell() {
        // Table I: TP=307, FP=63 → Precision 83%; Recall 85% with FN=55.
        let m = Metrics::new(307, 63, 55);
        assert_eq!(pct(m.precision()), "83%");
        assert_eq!(pct(m.recall()), "85%");
        assert_eq!(pct(m.f_score()), "84%");
    }

    #[test]
    fn undefined_cells_render_dash() {
        let m = Metrics::new(0, 0, 0);
        assert_eq!(pct(m.precision()), "-");
        assert_eq!(pct(m.recall()), "-");
        assert_eq!(pct(m.f_score()), "-");
    }

    #[test]
    fn zero_tp_with_fp_gives_zero_precision() {
        let m = Metrics::new(0, 1, 5);
        assert_eq!(pct(m.precision()), "0%");
        assert_eq!(pct(m.recall()), "0%");
        assert_eq!(m.f_score(), None, "p + r == 0");
    }

    #[test]
    fn bounds_hold() {
        for tp in 0..6 {
            for fp in 0..6 {
                for fn_ in 0..6 {
                    let m = Metrics::new(tp, fp, fn_);
                    for v in [m.precision(), m.recall(), m.f_score()]
                        .into_iter()
                        .flatten()
                    {
                        assert!((0.0..=1.0).contains(&v));
                    }
                }
            }
        }
    }

    #[test]
    fn merged_adds_counts() {
        let a = Metrics::new(1, 2, 3).merged(Metrics::new(4, 5, 6));
        assert_eq!((a.tp, a.fp, a.fn_), (5, 7, 9));
    }
}
