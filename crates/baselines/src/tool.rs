//! The common tool abstraction the evaluation harness runs: phpSAFE, the
//! RIPS-like baseline and the Pixy-like baseline all implement
//! [`AnalysisTool`].

use phpsafe::{AnalysisOutcome, EngineCaches, PhpSafe, PluginProject};

/// A static analysis tool that can be pointed at a plugin project.
///
/// `Send + Sync` so the engine's worker pool can fan jobs referencing one
/// tool instance across threads.
pub trait AnalysisTool: Send + Sync {
    /// Tool display name (`phpSAFE`, `RIPS`, `Pixy`).
    fn name(&self) -> &str;

    /// Analyzes a plugin and returns its findings.
    fn analyze(&self, project: &PluginProject) -> AnalysisOutcome;

    /// [`AnalysisTool::analyze`] sharing parse results and call summaries
    /// through the engine caches. Must return exactly what `analyze`
    /// returns — only faster.
    fn analyze_cached(&self, project: &PluginProject, caches: &EngineCaches) -> AnalysisOutcome;
}

impl AnalysisTool for PhpSafe {
    fn name(&self) -> &str {
        "phpSAFE"
    }

    fn analyze(&self, project: &PluginProject) -> AnalysisOutcome {
        PhpSafe::analyze(self, project)
    }

    fn analyze_cached(&self, project: &PluginProject, caches: &EngineCaches) -> AnalysisOutcome {
        self.analyze_with_caches(project, Some(caches))
    }
}

/// Builds the three tools of the paper's evaluation, in table order.
pub fn paper_tools() -> Vec<Box<dyn AnalysisTool>> {
    vec![
        Box::new(PhpSafe::new()),
        Box::new(crate::rips::Rips::new()),
        Box::new(crate::pixy::Pixy::new()),
    ]
}

/// [`paper_tools`] under the name of the retired graph analysis path. It
/// exists only so `perfbench` builds, and is deleted together with
/// perfbench's `dataflow.*` readings.
pub fn paper_tools_graph() -> Vec<Box<dyn AnalysisTool>> {
    paper_tools()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tools_have_expected_names() {
        let tools = paper_tools();
        let names: Vec<&str> = tools.iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["phpSAFE", "RIPS", "Pixy"]);
    }
}
