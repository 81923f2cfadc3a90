//! # phpsafe
//!
//! A Rust reproduction of **phpSAFE** — the OOP-aware static taint analyzer
//! for PHP web-application plugins from Nunes, Fonseca & Vieira, *phpSAFE: A
//! Security Analysis Tool for OOP Web Application Plugins* (DSN 2015).
//!
//! phpSAFE finds **XSS** and **SQL injection** vulnerabilities in CMS
//! plugins, including plugins written with object-oriented PHP — the
//! capability that distinguishes it from the free tools of its era (RIPS,
//! Pixy). The pipeline mirrors the paper's four stages:
//!
//! 1. **Configuration** — [`taint_config::TaintConfig`] supplies sources,
//!    sanitizers, revert functions and sinks (generic PHP + WordPress).
//! 2. **Model construction** — files are tokenized ([`php_lexer`]) and
//!    parsed ([`php_ast`]); [`symbols::SymbolTable`] collects user
//!    functions/classes and the functions never called from plugin code.
//! 3. **Analysis** — an inter-procedural, context-aware, OOP-resolving
//!    taint interpreter follows data from sources to sinks.
//! 4. **Results processing** — [`AnalysisOutcome`] carries deduplicated
//!    [`Vulnerability`] records with data-flow traces, per-file robustness
//!    reports and statistics, serializable to JSON.
//!
//! ```
//! use phpsafe::{PhpSafe, PluginProject, SourceFile};
//!
//! let plugin = PluginProject::new("mail-subscribe-list").with_file(SourceFile::new(
//!     "list.php",
//!     r#"<?php
//!     $results = $wpdb->get_results("SELECT * FROM " . $wpdb->prefix . "sml");
//!     foreach ($results as $row) { echo $row->sml_name; }
//!     "#,
//! ));
//! let outcome = PhpSafe::new().analyze(&plugin);
//! assert_eq!(outcome.vulns.len(), 1);
//! assert!(outcome.vulns[0].via_oop);
//! ```

#![warn(missing_docs)]

mod analyzer;
pub mod caching;
mod depgraph;
mod env;
pub mod explain;
mod html;
mod inspect;
mod interp;
mod project;
mod report;
pub mod server;
pub mod symbols;
pub mod taint;

pub use analyzer::{AnalyzerOptions, PhpSafe};
pub use caching::{CacheTotals, EngineCaches};
pub use depgraph::affected_files;
pub use explain::{explain_outcome, explain_vuln};
pub use html::{escape_html, render_html};
pub use inspect::{inspect, FileInventory, Inspection};
pub use project::{collect_files, load_project, PluginProject, SourceFile};
pub use report::{
    numeric_intent, AnalysisOutcome, AnalysisStats, FileFailure, FileReport, Vulnerability,
};
pub use server::AnalysisServer;
