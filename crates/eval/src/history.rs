//! Plugin security evolution over time — the paper's future-work feature
//! (§VI: *"we also intend to study the evolution of plugin security and
//! plugin updates over time by enabling historic data in phpSAFE"*).
//!
//! For every plugin, the two snapshots are compared by ground-truth id:
//! a 2012 vulnerability is **fixed** if absent from 2014, **carried** if
//! still present; a 2014 vulnerability not present in 2012 is
//! **introduced**.

use phpsafe_corpus::{Corpus, Version};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Evolution record for one plugin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PluginEvolution {
    /// Plugin slug.
    pub plugin: String,
    /// Ground-truth vulnerabilities in the 2012 snapshot.
    pub vulns_2012: usize,
    /// Ground-truth vulnerabilities in the 2014 snapshot.
    pub vulns_2014: usize,
    /// 2012 vulnerabilities no longer present in 2014.
    pub fixed: usize,
    /// Present in both snapshots (disclosed in 2013, never fixed).
    pub carried: usize,
    /// New in 2014.
    pub introduced: usize,
    /// OOP (CMS-object) vulnerabilities per snapshot.
    pub oop_2012: usize,
    /// OOP vulnerabilities in 2014.
    pub oop_2014: usize,
}

impl PluginEvolution {
    /// Did the plugin get safer (strictly fewer vulnerabilities)?
    pub fn improved(&self) -> bool {
        self.vulns_2014 < self.vulns_2012
    }

    /// Net change in vulnerability count.
    pub fn net_change(&self) -> i64 {
        self.vulns_2014 as i64 - self.vulns_2012 as i64
    }
}

/// Computes per-plugin evolution from the corpus ground truth.
pub fn evolution(corpus: &Corpus) -> Vec<PluginEvolution> {
    corpus
        .plugins()
        .iter()
        .map(|p| {
            let ids12: HashSet<&str> = p.truth_for(Version::V2012).map(|t| t.id.as_str()).collect();
            let t14: Vec<_> = p.truth_for(Version::V2014).collect();
            let carried = t14.iter().filter(|t| ids12.contains(t.id.as_str())).count();
            PluginEvolution {
                plugin: p.name.clone(),
                vulns_2012: ids12.len(),
                vulns_2014: t14.len(),
                fixed: ids12.len() - carried,
                carried,
                introduced: t14.len() - carried,
                oop_2012: p.truth_for(Version::V2012).filter(|t| t.oop).count(),
                oop_2014: t14.iter().filter(|t| t.oop).count(),
            }
        })
        .collect()
}

/// Renders the evolution study as a table plus aggregate trends.
pub fn evolution_report(corpus: &Corpus) -> String {
    let rows = evolution(corpus);
    let mut out = String::from("PLUGIN SECURITY EVOLUTION 2012 -> 2014 (ground truth)\n");
    let _ = writeln!(
        out,
        "{:22}|{:>6}|{:>6}|{:>6}|{:>8}|{:>11}|{:>5}",
        "Plugin", "2012", "2014", "fixed", "carried", "introduced", "net"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:22}|{:>6}|{:>6}|{:>6}|{:>8}|{:>11}|{:>+5}",
            r.plugin,
            r.vulns_2012,
            r.vulns_2014,
            r.fixed,
            r.carried,
            r.introduced,
            r.net_change()
        );
    }
    let total12: usize = rows.iter().map(|r| r.vulns_2012).sum();
    let total14: usize = rows.iter().map(|r| r.vulns_2014).sum();
    let fixed: usize = rows.iter().map(|r| r.fixed).sum();
    let carried: usize = rows.iter().map(|r| r.carried).sum();
    let improved = rows.iter().filter(|r| r.improved()).count();
    let worsened = rows.iter().filter(|r| r.net_change() > 0).count();
    let _ = writeln!(
        out,
        "totals: {total12} -> {total14} ({:+.0}%); fixed {fixed} ({:.0}% of 2012), carried {carried}; \
         {improved} plugins improved, {worsened} worsened",
        (total14 as f64 / total12 as f64 - 1.0) * 100.0,
        100.0 * fixed as f64 / total12.max(1) as f64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn rows() -> &'static Vec<PluginEvolution> {
        static R: OnceLock<Vec<PluginEvolution>> = OnceLock::new();
        R.get_or_init(|| evolution(&Corpus::generate()))
    }

    #[test]
    fn accounting_identities_hold() {
        for r in rows() {
            assert_eq!(r.fixed + r.carried, r.vulns_2012, "{}", r.plugin);
            assert_eq!(r.carried + r.introduced, r.vulns_2014, "{}", r.plugin);
        }
    }

    #[test]
    fn totals_match_corpus_ground_truth() {
        let total12: usize = rows().iter().map(|r| r.vulns_2012).sum();
        let total14: usize = rows().iter().map(|r| r.vulns_2014).sum();
        assert_eq!(total12, 394);
        assert_eq!(total14, 585);
    }

    #[test]
    fn three_oop_plugins_fixed_their_object_vulns() {
        // Catalog: 10 OOP-vuln plugins in 2012, 7 in 2014.
        let fixed_all_oop = rows()
            .iter()
            .filter(|r| r.oop_2012 > 0 && r.oop_2014 == 0)
            .count();
        assert_eq!(fixed_all_oop, 3);
    }

    #[test]
    fn most_plugins_worsen() {
        // The paper's trend: vulnerability counts increase over time.
        let worsened = rows().iter().filter(|r| r.net_change() > 0).count();
        let improved = rows().iter().filter(|r| r.improved()).count();
        assert!(
            worsened > improved,
            "worsened {worsened} vs improved {improved}"
        );
    }

    #[test]
    fn report_renders_all_plugins() {
        let report = evolution_report(&Corpus::generate());
        assert!(report.contains("mail-subscribe-list"));
        assert!(report.contains("totals: 394 -> 585"));
        assert_eq!(report.lines().count(), 35 + 3);
    }
}
