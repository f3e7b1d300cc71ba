//! Shared helpers for the lint passes: scope walking and path
//! normalisation. Every pass sees the same workspace-relative,
//! `/`-separated path spelling, so allowlists and reports stay
//! portable across platforms.

use std::fs;
use std::path::Path;

/// Walk a lint scope (directories or single files, workspace-relative),
/// returning sorted workspace-relative `.rs` paths. Entries that do not
/// exist are skipped silently so passes run against the mini-workspaces
/// the test suite fabricates.
pub(crate) fn walk_scope(
    root: &Path,
    scope: &[impl AsRef<str>],
    tag: &str,
) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for dir in scope {
        let top = root.join(dir.as_ref());
        if top.is_file() {
            files.push(relative(root, &top));
            continue;
        }
        if !top.is_dir() {
            continue;
        }
        let mut stack = vec![top];
        while let Some(d) = stack.pop() {
            let entries =
                fs::read_dir(&d).map_err(|e| format!("{tag}: read_dir {}: {e}", d.display()))?;
            for entry in entries {
                let entry = entry.map_err(|e| format!("{tag}: {e}"))?;
                let p = entry.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|x| x == "rs") {
                    files.push(relative(root, &p));
                }
            }
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

/// Workspace-relative `/`-separated path.
pub(crate) fn relative(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Read each scope file as `(rel_path, contents)`.
pub(crate) fn read_scope(
    root: &Path,
    scope: &[impl AsRef<str>],
    tag: &str,
) -> Result<Vec<(String, String)>, String> {
    walk_scope(root, scope, tag)?
        .into_iter()
        .map(|rel| {
            let path = root.join(&rel);
            fs::read_to_string(&path)
                .map(|text| (rel, text))
                .map_err(|e| format!("{tag}: read {}: {e}", path.display()))
        })
        .collect()
}
