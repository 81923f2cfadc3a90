//! Plugin projects: the unit of analysis. A project is a named collection of
//! PHP source files, mirroring a WordPress plugin directory, plus the
//! filesystem loader every front end (batch CLI, daemon) shares.

use phpsafe_engine::ContentKey;
use std::path::Path;

/// One PHP source file of a plugin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    /// Plugin-relative path, e.g. `includes/admin.php`.
    pub path: String,
    /// Full file contents.
    pub content: String,
}

impl SourceFile {
    /// Creates a source file.
    pub fn new(path: impl Into<String>, content: impl Into<String>) -> Self {
        SourceFile {
            path: path.into(),
            content: content.into(),
        }
    }

    /// Non-blank lines of code (the paper's LOC measure).
    pub fn loc(&self) -> usize {
        php_lexer::count_loc(&self.content)
    }
}

/// A plugin project: what phpSAFE receives as input.
///
/// Every file's bytes are digested once, when the file is added or
/// overlaid; the per-file [`ContentKey`]s key the parse cache, the
/// daemon's reload diff and the project key itself, so none of them
/// re-reads the contents.
///
/// # Examples
///
/// ```
/// use phpsafe::{PluginProject, SourceFile};
///
/// let p = PluginProject::new("my-plugin")
///     .with_file(SourceFile::new("my-plugin.php", "<?php echo 'hi';"));
/// assert_eq!(p.files().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PluginProject {
    name: String,
    files: Vec<SourceFile>,
    /// `ContentKey::of` each file's content, index-aligned with `files`.
    keys: Vec<ContentKey>,
}

impl PluginProject {
    /// Creates an empty project.
    pub fn new(name: impl Into<String>) -> Self {
        PluginProject {
            name: name.into(),
            files: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Adds a file (builder style).
    pub fn with_file(mut self, file: SourceFile) -> Self {
        self.push_file(file);
        self
    }

    /// Adds a file in place.
    pub fn push_file(&mut self, file: SourceFile) {
        self.keys.push(ContentKey::of(file.content.as_bytes()));
        self.files.push(file);
    }

    /// Project (plugin) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The project's files.
    pub fn files(&self) -> &[SourceFile] {
        &self.files
    }

    /// The content key of each file, index-aligned with
    /// [`PluginProject::files`].
    pub fn file_keys(&self) -> &[ContentKey] {
        &self.keys
    }

    /// Finds a file whose path ends with `suffix` (include resolution
    /// matches loosely, as paths are built with `dirname(__FILE__)` jumbles).
    pub fn find_file(&self, suffix: &str) -> Option<&SourceFile> {
        let needle = suffix.trim_start_matches("./").trim_start_matches('/');
        self.files
            .iter()
            .find(|f| f.path == needle)
            .or_else(|| self.files.iter().find(|f| f.path.ends_with(needle)))
    }

    /// Replaces the content of the file at `path` (exact project-relative
    /// match), or inserts a new file at its sorted position — so a project
    /// with an unsaved editor buffer overlaid is indistinguishable from
    /// loading a directory where that buffer had been saved, and analysis
    /// results (which iterate files in path order) stay byte-identical.
    pub fn overlay_file(&mut self, path: &str, content: &str) {
        let key = ContentKey::of(content.as_bytes());
        if let Some(i) = self.files.iter().position(|f| f.path == path) {
            self.files[i].content = content.to_owned();
            self.keys[i] = key;
            return;
        }
        let at = self.files.partition_point(|f| f.path.as_str() < path);
        self.files.insert(at, SourceFile::new(path, content));
        self.keys.insert(at, key);
    }

    /// Total non-blank LOC across all files.
    pub fn total_loc(&self) -> usize {
        self.files.iter().map(|f| f.loc()).sum()
    }

    /// A stable 64-bit fingerprint of the project contents: the name plus
    /// every `(path, content key)` pair in path order. Two projects
    /// fingerprint equal iff an analysis cannot distinguish them, so the
    /// daemon keys rendered responses on this. Built from the per-file
    /// keys, so it costs a pass over the paths, not over the contents.
    pub fn content_fingerprint(&self) -> u64 {
        let mut indexed: Vec<(&str, ContentKey)> = self
            .files
            .iter()
            .zip(&self.keys)
            .map(|(f, &k)| (f.path.as_str(), k))
            .collect();
        indexed.sort_by(|a, b| (a.0, a.1.hash, a.1.len).cmp(&(b.0, b.1.hash, b.1.len)));
        let mut text = Vec::with_capacity(self.name.len() + indexed.len() * 48);
        text.extend_from_slice(self.name.as_bytes());
        for (path, key) in indexed {
            text.push(0x1e);
            text.extend_from_slice(path.as_bytes());
            text.push(0x1f);
            text.extend_from_slice(&key.hash.to_le_bytes());
            text.extend_from_slice(&key.len.to_le_bytes());
        }
        phpsafe_engine::digest64(&text)
    }

    /// The project's [`ContentKey`]: the content fingerprint plus total
    /// content length. Persistent caches (daemon responses, dependency graphs)
    /// key project-level artifacts on this.
    pub fn content_key(&self) -> ContentKey {
        ContentKey {
            hash: self.content_fingerprint(),
            len: self.keys.iter().map(|k| k.len).sum(),
        }
    }
}

/// Collects `.php`-family files under `root` (recursively), with paths
/// relative to `root` and sorted for deterministic project contents. A
/// single-file `root` becomes a one-file project.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    fn is_php(p: &Path) -> bool {
        matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("php" | "inc" | "module" | "phtml")
        )
    }
    let mut out = Vec::new();
    if root.is_file() {
        let content = std::fs::read_to_string(root)?;
        let name = root
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "input.php".into());
        out.push(SourceFile::new(name, content));
        return Ok(out);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if is_php(&path) {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                match std::fs::read_to_string(&path) {
                    Ok(content) => out.push(SourceFile::new(rel, content)),
                    Err(e) => eprintln!("warning: skipping {}: {e}", path.display()),
                }
            }
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// Loads one filesystem path (a plugin directory or a single PHP file) as
/// a plugin project named after the path's final component.
pub fn load_project(path: &Path) -> Result<PluginProject, String> {
    let files = collect_files(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if files.is_empty() {
        return Err(format!("no PHP files found under {}", path.display()));
    }
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "plugin".into());
    let mut project = PluginProject::new(name);
    for f in files {
        project.push_file(f);
    }
    Ok(project)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_file_matches_exact_then_suffix() {
        let p = PluginProject::new("p")
            .with_file(SourceFile::new("a.php", ""))
            .with_file(SourceFile::new("inc/a.php", ""))
            .with_file(SourceFile::new("inc/b.php", ""));
        assert_eq!(p.find_file("a.php").unwrap().path, "a.php");
        assert_eq!(p.find_file("inc/b.php").unwrap().path, "inc/b.php");
        assert_eq!(p.find_file("./b.php").unwrap().path, "inc/b.php");
        assert!(p.find_file("missing.php").is_none());
    }

    #[test]
    fn loc_counts_nonblank() {
        let f = SourceFile::new("x.php", "<?php\n\n$a = 1;\n");
        assert_eq!(f.loc(), 2);
        let p = PluginProject::new("p").with_file(f);
        assert_eq!(p.total_loc(), 2);
    }

    #[test]
    fn file_keys_follow_pushes_and_overlays() {
        let mut p = PluginProject::new("p")
            .with_file(SourceFile::new("b.php", "<?php echo 1;"))
            .with_file(SourceFile::new("d.php", "<?php echo 2;"));
        p.overlay_file("b.php", "<?php echo 3;");
        p.overlay_file("c.php", "<?php echo 4;");
        let paths: Vec<&str> = p.files().iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, ["b.php", "c.php", "d.php"]);
        for (f, key) in p.files().iter().zip(p.file_keys()) {
            assert_eq!(*key, ContentKey::of(f.content.as_bytes()), "{}", f.path);
        }
    }

    #[test]
    fn content_key_ignores_file_order_but_not_content() {
        let a = PluginProject::new("p")
            .with_file(SourceFile::new("a.php", "<?php echo 1;"))
            .with_file(SourceFile::new("b.php", "<?php echo 2;"));
        let b = PluginProject::new("p")
            .with_file(SourceFile::new("b.php", "<?php echo 2;"))
            .with_file(SourceFile::new("a.php", "<?php echo 1;"));
        assert_eq!(a.content_key(), b.content_key());
        let mut c = a.clone();
        c.overlay_file("b.php", "<?php echo 3;");
        assert_ne!(a.content_key(), c.content_key());
        let renamed = PluginProject::new("q")
            .with_file(SourceFile::new("a.php", "<?php echo 1;"))
            .with_file(SourceFile::new("b.php", "<?php echo 2;"));
        assert_ne!(a.content_key(), renamed.content_key());
    }
}
