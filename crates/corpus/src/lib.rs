//! # phpsafe-corpus
//!
//! A deterministic synthetic corpus of **35 WordPress-style plugins × 2
//! versions (2012, 2014)** with a ground-truth vulnerability oracle —
//! the substitution for the paper's proprietary plugin snapshots (see
//! DESIGN.md §3).
//!
//! Every vulnerability and every false-positive bait is an instance of a
//! [`Pattern`] with a known capability profile: which of phpSAFE / RIPS /
//! Pixy can see it, and why (OOP encapsulation, WordPress API knowledge,
//! include resolution, `register_globals`, uncalled-function coverage,
//! resource limits). The catalog calibrates pattern counts so corpus-wide
//! aggregates reproduce the shape of the paper's evaluation: 394 distinct
//! vulnerabilities in 2012 and 585 in 2014 (paper: 394/586), 42% carried
//! over unfixed, 151/179 OOP vulnerabilities concentrated in 10/7 plugins,
//! SQLi 8/9, and the per-tool capability gaps of Table I.
//!
//! ```
//! use phpsafe_corpus::{Corpus, Version};
//!
//! let corpus = Corpus::generate();
//! assert_eq!(corpus.plugins().len(), 35);
//! assert_eq!(corpus.truth_for(Version::V2012).len(), 394);
//! ```

#![warn(missing_docs)]

mod catalog;
mod codegen;
mod generate;
mod spec;
mod stress;

pub use catalog::{
    catalog, taxonomy_catalog, MONSTER_CARRIED, PLUGIN_NAMES, TAXONOMY_PLUGIN_NAMES,
};
pub use codegen::{emit_noise, emit_plugin_header, FileBuilder};
pub use generate::{Corpus, GeneratedPlugin};
pub use spec::{GroundTruthEntry, Pattern, PatternCount, Placement, PluginSpec, Style, Version};
pub use stress::{mutate, MUTATION_KINDS};
