//! File-level dependency graph for incremental invalidation.
//!
//! [`DepGraph`] records which files of a project depend on which others —
//! nodes are file paths, edges are `include`/`require` targets and
//! cross-file call/summary uses. The daemon uses it to answer the only
//! question incrementality needs: *given these dirty files, which files
//! could produce different analysis results?* ([`DepGraph::dependents_of`]
//! — the dirty set plus its transitive dependents, walking reverse edges).
//!
//! The graph is file-granular and config-independent, and it lives only in
//! memory: the analyzer crate resolves it on demand from the references
//! each file content declares and makes (it owns the AST), so nothing about
//! it is persisted. Like the rest of the engine layer, this module knows
//! nothing about PHP; it owns the graph and its closure query.

use std::collections::{BTreeSet, HashMap};

/// A file-level dependency graph: `A -> B` means *A depends on B* (A
/// includes B, or calls/uses a symbol declared in B), so an edit to B
/// invalidates A.
#[derive(Debug, Default)]
pub struct DepGraph {
    /// Node id -> file path, in insertion order.
    files: Vec<String>,
    /// File path -> node id.
    index: HashMap<String, usize>,
    /// `deps[i]` = nodes that `i` depends on (forward edges).
    deps: Vec<BTreeSet<usize>>,
    /// `rdeps[i]` = nodes that depend on `i` (reverse edges).
    rdeps: Vec<BTreeSet<usize>>,
}

impl DepGraph {
    /// An empty graph.
    pub fn new() -> DepGraph {
        DepGraph::default()
    }

    /// Ensures `path` is a node and returns its id.
    pub fn add_file(&mut self, path: &str) -> usize {
        if let Some(&id) = self.index.get(path) {
            return id;
        }
        let id = self.files.len();
        self.files.push(path.to_owned());
        self.index.insert(path.to_owned(), id);
        self.deps.push(BTreeSet::new());
        self.rdeps.push(BTreeSet::new());
        id
    }

    /// Records that `from` depends on `to` (both become nodes if new).
    /// Self-edges are dropped — a file trivially invalidates itself.
    pub fn add_edge(&mut self, from: &str, to: &str) {
        let f = self.add_file(from);
        let t = self.add_file(to);
        if f == t {
            return;
        }
        self.deps[f].insert(t);
        self.rdeps[t].insert(f);
    }

    /// The files `path` directly depends on, sorted.
    pub fn deps_of(&self, path: &str) -> Vec<&str> {
        let mut deps: Vec<&str> = match self.index.get(path) {
            Some(&id) => self.deps[id]
                .iter()
                .map(|&d| self.files[d].as_str())
                .collect(),
            None => Vec::new(),
        };
        deps.sort_unstable();
        deps
    }

    /// The affected set of an edit: every dirty file plus the transitive
    /// closure of its dependents (files that include or call into a dirty
    /// file, directly or through any chain). Sorted and deduplicated;
    /// dirty paths the graph has never seen are passed through unchanged —
    /// a brand-new file can have dependents only after the next build.
    pub fn dependents_of<S: AsRef<str>>(&self, dirty: &[S]) -> Vec<String> {
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut unknown: BTreeSet<&str> = BTreeSet::new();
        let mut stack: Vec<usize> = Vec::new();
        for d in dirty {
            match self.index.get(d.as_ref()) {
                Some(&id) => {
                    if seen.insert(id) {
                        stack.push(id);
                    }
                }
                None => {
                    unknown.insert(d.as_ref());
                }
            }
        }
        while let Some(id) = stack.pop() {
            for &r in &self.rdeps[id] {
                if seen.insert(r) {
                    stack.push(r);
                }
            }
        }
        let mut out: Vec<String> = seen.iter().map(|&id| self.files[id].clone()).collect();
        out.extend(unknown.iter().map(|s| (*s).to_owned()));
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a -> b -> c (a includes b, b includes c), d isolated.
    fn diamond() -> DepGraph {
        let mut g = DepGraph::new();
        g.add_edge("a.php", "b.php");
        g.add_edge("b.php", "c.php");
        g.add_file("d.php");
        g
    }

    #[test]
    fn dependents_walk_reverse_edges_transitively() {
        let g = diamond();
        // Editing c invalidates b (includes c) and a (includes b).
        assert_eq!(g.dependents_of(&["c.php"]), ["a.php", "b.php", "c.php"]);
        // Editing a invalidates only a: nothing depends on it.
        assert_eq!(g.dependents_of(&["a.php"]), ["a.php"]);
        // An isolated file invalidates only itself.
        assert_eq!(g.dependents_of(&["d.php"]), ["d.php"]);
    }

    #[test]
    fn unknown_dirty_paths_pass_through() {
        let g = diamond();
        assert_eq!(g.dependents_of(&["new.php"]), ["new.php"]);
        let mixed = g.dependents_of(&["new.php", "c.php"]);
        assert_eq!(mixed, ["a.php", "b.php", "c.php", "new.php"]);
    }

    #[test]
    fn cycles_terminate() {
        let mut g = DepGraph::new();
        g.add_edge("x.php", "y.php");
        g.add_edge("y.php", "x.php");
        assert_eq!(g.dependents_of(&["x.php"]), ["x.php", "y.php"]);
    }

    #[test]
    fn self_edges_are_dropped() {
        let mut g = DepGraph::new();
        g.add_edge("a.php", "a.php");
        assert_eq!(g.deps_of("a.php"), Vec::<&str>::new());
        assert_eq!(g.dependents_of(&["a.php"]), ["a.php"]);
    }
}
