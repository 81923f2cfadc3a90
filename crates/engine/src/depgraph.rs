//! File-level dependency graph for incremental invalidation.
//!
//! [`DepGraph`] records which files of a project depend on which others —
//! nodes are file paths, edges are `include`/`require` targets and
//! cross-file call/summary uses discovered during model construction. The
//! daemon uses it to answer the only question incrementality needs:
//! *given these dirty files, which files could produce different analysis
//! results?* ([`DepGraph::dependents_of`] — the dirty set plus its
//! transitive dependents, walking reverse edges).
//!
//! The graph is deliberately file-granular and config-independent: it is
//! built from the parsed ASTs and the symbol table alone, so one graph per
//! project content key serves every tool and fingerprint. It serializes
//! into the [`DiskCache`](crate::DiskCache) under its own `depgraph`
//! namespace alongside `ast`, `summary` and `outcome`, with the same
//! corruption-tolerant envelope semantics.
//!
//! Like the rest of the engine layer, this module knows nothing about PHP:
//! the analyzer crate extracts the edges (it owns the AST), the engine
//! owns the graph, its closure query and its wire format.

use std::collections::{BTreeSet, HashMap};

/// A file-level dependency graph: `A -> B` means *A depends on B* (A
/// includes B, or calls/uses a symbol declared in B), so an edit to B
/// invalidates A.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
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

    /// Number of files.
    pub fn node_count(&self) -> usize {
        self.files.len()
    }

    /// Number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.deps.iter().map(BTreeSet::len).sum()
    }

    /// All node paths, in insertion order.
    pub fn files(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(String::as_str)
    }

    /// The files `path` directly depends on, sorted.
    pub fn deps_of(&self, path: &str) -> Vec<&str> {
        match self.index.get(path) {
            Some(&id) => self.deps[id]
                .iter()
                .map(|&d| self.files[d].as_str())
                .collect(),
            None => Vec::new(),
        }
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

    /// Serializes the graph into a deterministic byte stream for the disk
    /// cache: a magic/version header, the path table, then each node's
    /// forward edge list (reverse edges are rebuilt on decode).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"PDG1");
        out.extend_from_slice(&(self.files.len() as u32).to_le_bytes());
        for path in &self.files {
            out.extend_from_slice(&(path.len() as u32).to_le_bytes());
            out.extend_from_slice(path.as_bytes());
        }
        for deps in &self.deps {
            out.extend_from_slice(&(deps.len() as u32).to_le_bytes());
            for &d in deps {
                out.extend_from_slice(&(d as u32).to_le_bytes());
            }
        }
        out
    }

    /// Decodes a graph written by [`DepGraph::encode`]. Any structural
    /// problem is an error so a damaged cache entry degrades to a rebuild.
    pub fn decode(bytes: &[u8]) -> Result<DepGraph, String> {
        fn take<'a>(bytes: &'a [u8], at: &mut usize, n: usize) -> Result<&'a [u8], String> {
            let end = at
                .checked_add(n)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| "truncated depgraph".to_owned())?;
            let s = &bytes[*at..end];
            *at = end;
            Ok(s)
        }
        fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
            Ok(u32::from_le_bytes(take(bytes, at, 4)?.try_into().unwrap()))
        }
        let mut at = 0usize;
        if take(bytes, &mut at, 4)? != b"PDG1" {
            return Err("bad depgraph magic".to_owned());
        }
        let n = take_u32(bytes, &mut at)? as usize;
        let mut g = DepGraph::new();
        for _ in 0..n {
            let len = take_u32(bytes, &mut at)? as usize;
            let path = std::str::from_utf8(take(bytes, &mut at, len)?)
                .map_err(|_| "non-UTF-8 path".to_owned())?;
            if g.index.contains_key(path) {
                return Err("duplicate path".to_owned());
            }
            g.add_file(path);
        }
        for from in 0..n {
            let deg = take_u32(bytes, &mut at)? as usize;
            for _ in 0..deg {
                let to = take_u32(bytes, &mut at)? as usize;
                if to >= n {
                    return Err("edge target out of range".to_owned());
                }
                if from != to {
                    g.deps[from].insert(to);
                    g.rdeps[to].insert(from);
                }
            }
        }
        if at != bytes.len() {
            return Err("trailing depgraph bytes".to_owned());
        }
        Ok(g)
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
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn encode_decode_round_trips() {
        let g = diamond();
        let decoded = DepGraph::decode(&g.encode()).unwrap();
        assert_eq!(decoded, g);
        assert_eq!(decoded.edge_count(), 2);
        assert_eq!(
            decoded.dependents_of(&["c.php"]),
            g.dependents_of(&["c.php"])
        );
    }

    #[test]
    fn encode_is_deterministic_across_insertion_orders_of_edges() {
        let mut g1 = DepGraph::new();
        g1.add_file("a.php");
        g1.add_file("b.php");
        g1.add_file("c.php");
        g1.add_edge("a.php", "b.php");
        g1.add_edge("a.php", "c.php");
        let mut g2 = DepGraph::new();
        g2.add_file("a.php");
        g2.add_file("b.php");
        g2.add_file("c.php");
        g2.add_edge("a.php", "c.php");
        g2.add_edge("a.php", "b.php");
        assert_eq!(g1.encode(), g2.encode());
    }

    #[test]
    fn damaged_bytes_are_rejected() {
        let good = diamond().encode();
        assert!(DepGraph::decode(b"XXXX").is_err());
        let mut bad_edge = good.clone();
        let last = bad_edge.len() - 4;
        bad_edge[last..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(DepGraph::decode(&bad_edge).is_err());
        assert!(DepGraph::decode(&[]).is_err());
        for cut in 0..good.len() {
            assert!(DepGraph::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn byte_flips_never_panic() {
        let good = diamond().encode();
        for at in 0..good.len() {
            for flip in [0xffu8, 0x01, 0x80] {
                let mut bytes = good.clone();
                bytes[at] ^= flip;
                // Rejected, or decoded into some other well-formed graph.
                let _ = DepGraph::decode(&bytes);
            }
        }
    }
}
