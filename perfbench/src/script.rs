//! Seeded op scripts. Each workload's whole script is built from the seed
//! before anything is timed or any daemon starts; the program under test
//! only ever sees the files and requests the script produces.

use crate::stats::Rng;
use phpsafe_engine::fnv1a_64;

/// Plugins per corpus version.
pub const PLUGINS: usize = 35;
/// Plugin roots on disk: 35 plugins × the 2012 and 2014 snapshots.
pub const ROOTS: usize = 2 * PLUGINS;

/// One cold_audit op: a (tool, version, plugin) cell of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Index into `paper_tools()`.
    pub tool: usize,
    /// 0 = 2012, 1 = 2014.
    pub version: usize,
    pub plugin: usize,
}

/// `passes` full matrices (3 tools × 2 versions × 35 plugins), each in its
/// own seeded order.
pub fn cold_script(seed: u64, passes: usize) -> Vec<Cell> {
    let mut rng = Rng::new(seed);
    let mut ops = Vec::with_capacity(passes * 3 * ROOTS);
    for _ in 0..passes {
        let mut pass: Vec<Cell> = (0..3)
            .flat_map(|tool| {
                (0..2).flat_map(move |version| {
                    (0..PLUGINS).map(move |plugin| Cell {
                        tool,
                        version,
                        plugin,
                    })
                })
            })
            .collect();
        rng.shuffle(&mut pass);
        ops.extend(pass);
    }
    ops
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A comment line: the findings do not change.
    Comment,
    /// An unsanitized echo of a request parameter: adds one finding.
    TaintedEcho,
    /// The same echo through a sanitizer: no new finding.
    SanitizedEcho,
}

/// One edit: a line typed at the top of a file, then saved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    pub root: usize,
    /// Index into the root's sorted file list.
    pub file: usize,
    pub kind: EditKind,
    /// Makes every edited line unique.
    pub tag: usize,
}

impl Edit {
    /// The full line this edit types.
    pub fn line(&self) -> String {
        match self.kind {
            EditKind::Comment => format!("// perfbench note {}", self.tag),
            EditKind::TaintedEcho => format!("echo $_GET['pb{}'];", self.tag),
            EditKind::SanitizedEcho => format!("echo esc_html($_GET['pb{}']);", self.tag),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditorOp {
    /// `analyze` with the file as typed so far (`typed` bytes of the line)
    /// sent as an unsaved buffer.
    Buffer { edit: usize, typed: usize },
    /// Write the finished line to disk, `invalidate`, then `analyze`.
    Save { edit: usize },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditorScript {
    pub edits: Vec<Edit>,
    pub ops: Vec<EditorOp>,
}

/// Edits per visit to a root.
pub const EDITS_PER_VISIT: usize = 3;
/// Buffer analyzes while an edit is typed.
pub const BUFFERS_PER_EDIT: usize = 2;

/// A developer's session: roots visited in seeded order (every root once
/// per round), [`EDITS_PER_VISIT`] edits per visit, each partly typed over
/// [`BUFFERS_PER_EDIT`] buffer analyzes and then saved whole. Every root
/// gets the same number of ops per round, so a run's cost does not hinge
/// on which roots the seed favours. `files[r]` is the file count of root
/// `r`.
pub fn editor_script(seed: u64, files: &[usize], min_ops: usize) -> EditorScript {
    let mut rng = Rng::new(seed);
    let mut script = EditorScript {
        edits: Vec::new(),
        ops: Vec::new(),
    };
    while script.ops.len() < min_ops {
        let mut order: Vec<usize> = (0..files.len()).collect();
        rng.shuffle(&mut order);
        for root in order {
            for _ in 0..EDITS_PER_VISIT {
                let kind = match rng.below(3) {
                    0 => EditKind::Comment,
                    1 => EditKind::TaintedEcho,
                    _ => EditKind::SanitizedEcho,
                };
                let edit = Edit {
                    root,
                    file: rng.below(files[root]),
                    kind,
                    tag: script.edits.len(),
                };
                let len = edit.line().len();
                let id = script.edits.len();
                script.edits.push(edit);
                // The line is saved before its last keystrokes reach the
                // daemon as a buffer, so every save changes the file.
                for k in 1..=BUFFERS_PER_EDIT {
                    script.ops.push(EditorOp::Buffer {
                        edit: id,
                        typed: len * k / (BUFFERS_PER_EDIT + 1),
                    });
                }
                script.ops.push(EditorOp::Save { edit: id });
            }
        }
    }
    script
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetOp {
    Analyze { root: usize },
    Status,
    Metrics,
    Prometheus,
}

/// Two connections' request sequences: 90% warm `analyze` of a uniformly
/// chosen root, the rest `status` and `metrics` (JSON and Prometheus).
pub fn fleet_script(seed: u64, per_conn: usize) -> [Vec<FleetOp>; 2] {
    let mut rng = Rng::new(seed);
    let one = |rng: &mut Rng| {
        (0..per_conn)
            .map(|_| match rng.below(100) {
                0..=89 => FleetOp::Analyze {
                    root: rng.below(ROOTS),
                },
                90..=93 => FleetOp::Status,
                94..=96 => FleetOp::Metrics,
                _ => FleetOp::Prometheus,
            })
            .collect::<Vec<_>>()
    };
    let first = one(&mut rng);
    let second = one(&mut rng);
    [first, second]
}

/// FNV-1a of the script's canonical rendering.
pub fn script_hash(script: &impl std::fmt::Debug) -> u64 {
    fnv1a_64(format!("{script:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<usize> {
        (0..ROOTS).map(|r| 1 + r % 7).collect()
    }

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        assert_eq!(cold_script(1, 3), cold_script(1, 3));
        assert_ne!(cold_script(1, 3), cold_script(2, 3));
        assert_eq!(
            script_hash(&editor_script(5, &files(), 500)),
            script_hash(&editor_script(5, &files(), 500))
        );
        assert_ne!(
            script_hash(&editor_script(5, &files(), 500)),
            script_hash(&editor_script(6, &files(), 500))
        );
        assert_eq!(fleet_script(9, 100), fleet_script(9, 100));
        assert_ne!(
            script_hash(&fleet_script(9, 100)),
            script_hash(&fleet_script(10, 100))
        );
    }

    #[test]
    fn cold_passes_cover_the_matrix_once_each() {
        let ops = cold_script(3, 2);
        assert_eq!(ops.len(), 2 * 210);
        let mut first: Vec<_> = ops[..210]
            .iter()
            .map(|c| (c.tool, c.version, c.plugin))
            .collect();
        first.sort();
        first.dedup();
        assert_eq!(first.len(), 210);
    }

    #[test]
    fn editor_saves_differ_from_the_last_buffer() {
        let script = editor_script(11, &files(), 300);
        assert!(script.ops.len() >= 300);
        for (i, op) in script.ops.iter().enumerate() {
            if let EditorOp::Save { edit } = op {
                let Some(EditorOp::Buffer { edit: e, typed }) = script.ops.get(i - 1) else {
                    panic!("a save follows its buffers");
                };
                assert_eq!(e, edit);
                assert!(*typed < script.edits[*edit].line().len());
            }
        }
        // Every root is visited before any is revisited.
        let mut seen = Vec::new();
        for e in &script.edits {
            if seen.last() != Some(&e.root) {
                seen.push(e.root);
            }
        }
        let mut round: Vec<_> = seen[..ROOTS].to_vec();
        round.sort();
        round.dedup();
        assert_eq!(round.len(), ROOTS);
    }
}
