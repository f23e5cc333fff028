//! Workspace file discovery and the cross-file `#[cfg(test)] mod x;`
//! resolution pass.
//!
//! The linted set is every `.rs` file under the workspace's `src/` trees —
//! the root package's `src/` and each `crates/*/src/` — in sorted order so
//! reports are deterministic. `tests/`, `benches/`, and `examples/` targets
//! are test/demo code by construction and are not walked unless the caller
//! opts in (`--include-tests`, which lints them under the relaxed rule
//! set — see [`crate::rules::check_file`]); directories named `target` or
//! `fixtures` are always skipped.

use crate::source::SourceFile;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "fixtures", ".git", "node_modules"];

/// Collects the workspace's lintable `.rs` files under `root`, sorted.
/// Returns workspace-relative forward-slash paths alongside absolute ones.
pub fn discover(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    discover_with(root, false)
}

/// [`discover`], optionally extending the walk to the workspace's test
/// trees: the root `tests/` and each crate's `tests/`, `benches/`, and
/// `examples/`.
pub fn discover_with(root: &Path, include_tests: bool) -> io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for base in ["src", "crates"] {
        let dir = root.join(base);
        if dir.is_dir() {
            collect(&dir, root, include_tests, &mut files)?;
        }
    }
    if include_tests {
        let dir = root.join("tests");
        if dir.is_dir() {
            collect(&dir, root, include_tests, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(files)
}

fn collect(
    dir: &Path,
    root: &Path,
    include_tests: bool,
    out: &mut Vec<(PathBuf, String)>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            // Only descend into src trees (and the directories above them):
            // crates/<name>/tests, /benches, /examples hold test code and
            // join the walk only when the caller opts in.
            let rel = rel_path(&path, root);
            let is_crate_child = rel.split('/').count() == 2 && rel.starts_with("crates/");
            if is_crate_child
                || rel == "crates"
                || in_src(&rel)
                || name == "src"
                || (include_tests && in_lintable(&rel, true))
            {
                collect(&path, root, include_tests, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = rel_path(&path, root);
            if in_lintable(&rel, include_tests) {
                out.push((path, rel));
            }
        }
    }
    Ok(())
}

fn in_src(rel: &str) -> bool {
    rel.starts_with("src/") || rel.contains("/src/")
}

/// Whether `rel` belongs to a tree the walk may emit: a `src/` tree
/// always; a `tests/`/`benches/`/`examples/` tree only when the caller
/// opted into test linting.
fn in_lintable(rel: &str, include_tests: bool) -> bool {
    if in_src(rel) {
        return true;
    }
    include_tests
        && ["tests", "benches", "examples"].iter().any(|t| {
            rel.starts_with(&format!("{t}/")) || rel.contains(&format!("/{t}/")) || {
                // The directory itself (`crates/nn/tests`) during descent.
                rel == *t || rel.ends_with(&format!("/{t}"))
            }
        })
}

fn rel_path(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Parses every discovered file and drops the ones gated behind a
/// `#[cfg(test)] mod x;` declaration in their parent module (e.g.
/// `crates/trace/src/proptests.rs`). Returns the remaining files, parsed.
pub fn load_workspace(root: &Path) -> io::Result<Vec<SourceFile>> {
    load_workspace_with(root, false)
}

/// [`load_workspace`], optionally including the workspace's test trees.
pub fn load_workspace_with(root: &Path, include_tests: bool) -> io::Result<Vec<SourceFile>> {
    let mut parsed = Vec::new();
    for (abs, rel) in discover_with(root, include_tests)? {
        let src = fs::read_to_string(&abs)?;
        parsed.push(SourceFile::parse(&rel, &src));
    }
    let gated = gated_files(&parsed);
    Ok(parsed
        .into_iter()
        .filter(|f| !gated.contains(&f.rel_path))
        .collect())
}

/// Resolves each parent file's `gated_child_mods` to candidate child file
/// paths: for a `lib.rs`/`mod.rs`/`main.rs` parent the child lives in the
/// same directory; for `foo.rs` it lives in `foo/`.
fn gated_files(parsed: &[SourceFile]) -> BTreeSet<String> {
    let mut gated = BTreeSet::new();
    for f in parsed {
        if f.gated_child_mods.is_empty() {
            continue;
        }
        let (dir, file_name) = match f.rel_path.rsplit_once('/') {
            Some((d, n)) => (d.to_owned(), n),
            None => (String::new(), f.rel_path.as_str()),
        };
        let mod_dir = if matches!(file_name, "lib.rs" | "mod.rs" | "main.rs") {
            dir
        } else {
            format!("{dir}/{}", file_name.trim_end_matches(".rs"))
        };
        for child in &f.gated_child_mods {
            gated.insert(format!("{mod_dir}/{child}.rs"));
            gated.insert(format!("{mod_dir}/{child}/mod.rs"));
        }
    }
    gated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gated_module_resolution_handles_lib_and_file_parents() {
        let lib = SourceFile::parse("crates/trace/src/lib.rs", "#[cfg(test)]\nmod proptests;\n");
        let nested = SourceFile::parse("crates/nn/src/train.rs", "#[cfg(test)]\nmod golden;\n");
        let gated = gated_files(&[lib, nested]);
        assert!(gated.contains("crates/trace/src/proptests.rs"));
        assert!(gated.contains("crates/nn/src/train/golden.rs"));
    }

    #[test]
    fn in_src_filter() {
        assert!(in_src("src/lib.rs"));
        assert!(in_src("crates/nn/src/geometry.rs"));
        assert!(!in_src("crates/nn/tests/gradient_check.rs"));
        assert!(!in_src("crates/trace/benches/segment.rs"));
    }
}
