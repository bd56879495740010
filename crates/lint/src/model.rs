//! Workspace discovery and per-file analysis context.
//!
//! The walker reads the root `Cargo.toml` for the member list (expanding
//! `dir/*` globs), then collects every `.rs` file under the workspace
//! outside [`EXCLUDE`] in sorted order, classifying each by role
//! (library source vs. tests / examples / benches / binaries). Each
//! file is scanned once ([`crate::lexer`]) and annotated with its *test
//! scopes*: the line ranges of `#[cfg(test)]` items and `#[test]`
//! functions. Checks consume this shared context.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Scan, TokenKind};

/// Path prefixes never scanned (workspace-relative, `/`-separated):
/// - `crates/shims`: vendored registry shims mirror upstream crates and
///   are exempt from local policy (they keep upstream versions, panics,
///   etc.);
/// - `crates/lint/tests/fixtures`: deliberate violations used as test
///   input.
///
/// `target` and `.git` directories are skipped at any depth.
pub const EXCLUDE: [&str; 2] = ["crates/shims", "crates/lint/tests/fixtures"];

/// Whether the `/`-separated `path` is `prefix` or lies under it.
pub fn under_prefix(path: &str, prefix: &str) -> bool {
    path == prefix || path.starts_with(&format!("{prefix}/"))
}

/// Role of a source file within its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library source (`<crate>/src/**`, excluding `src/bin`).
    Lib,
    /// Integration tests, benches, examples, `src/bin`, or `build.rs`.
    Support,
}

/// A line range `[start, end]` (1-based, inclusive) attached to an item.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// First line (the attribute's line).
    pub start: usize,
    /// Last line of the item body.
    pub end: usize,
}

impl Scope {
    /// Whether `line` falls inside this scope.
    pub fn contains(&self, line: usize) -> bool {
        line >= self.start && line <= self.end
    }
}

/// One analyzed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Name of the owning workspace member (package name), if any.
    pub crate_name: Option<String>,
    /// Role (library vs. support code).
    pub role: FileRole,
    /// Token + comment scan.
    pub scan: Scan,
    /// Line ranges under `#[cfg(test)]` (plus `#[test]` functions).
    pub test_scopes: Vec<Scope>,
}

impl SourceFile {
    /// Whether `line` is inside test-only code.
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_scopes.iter().any(|s| s.contains(line))
    }
}

/// One workspace member package.
#[derive(Debug, Clone)]
pub struct Member {
    /// Package name from its manifest.
    pub name: String,
    /// Directory relative to the workspace root, `/`-separated.
    pub dir: String,
    /// Raw manifest text.
    pub manifest: String,
}

/// The analyzed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Raw root manifest text.
    pub root_manifest: String,
    /// Member packages, sorted by directory.
    pub members: Vec<Member>,
    /// All scanned `.rs` files, sorted by relative path.
    pub files: Vec<SourceFile>,
    /// Prose docs (`README.md`, `DESIGN.md`) for mention checks.
    pub docs: BTreeMap<String, String>,
}

/// A fatal error while loading the workspace.
#[derive(Debug)]
pub struct LoadError(pub String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

fn read(path: &Path) -> Result<String, LoadError> {
    std::fs::read_to_string(path)
        .map_err(|e| LoadError(format!("cannot read {}: {e}", path.display())))
}

/// Normalize a path relative to `root` into `/`-separated form.
fn rel(root: &Path, path: &Path) -> String {
    let r = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for comp in r.components() {
        if !out.is_empty() {
            out.push('/');
        }
        out.push_str(&comp.as_os_str().to_string_lossy());
    }
    out
}

/// Extract `members = [...]` entries from a workspace manifest.
fn manifest_members(manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_workspace = false;
    let mut in_members = false;
    let mut buf = String::new();
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
            in_members = false;
            continue;
        }
        if in_workspace && line.starts_with("members") {
            in_members = true;
            buf.clear();
        }
        if in_members {
            buf.push_str(line);
            buf.push(' ');
            if line.contains(']') {
                in_members = false;
                for piece in buf.split('"').skip(1).step_by(2) {
                    out.push(piece.to_string());
                }
            }
        }
    }
    out
}

/// Extract `name = "..."` from a `[package]` section.
fn manifest_package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return rest.trim().trim_matches('"').to_string().into();
                }
            }
        }
    }
    None
}

/// Recursively collect `.rs` files under `dir`, sorted, skipping
/// [`EXCLUDE`] and `target`/`.git`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LoadError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| LoadError(format!("cannot list {}: {e}", dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let r = rel(root, &path);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().to_string())
            .unwrap_or_default();
        if name == "target" || name == ".git" {
            continue;
        }
        if EXCLUDE.iter().any(|p| under_prefix(&r, p)) {
            continue;
        }
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Classify a file's role from its workspace-relative path.
fn role_of(rel_path: &str) -> FileRole {
    let segs: Vec<&str> = rel_path.split('/').collect();
    let support_dirs = ["tests", "benches", "examples", "bin"];
    if segs.iter().any(|s| support_dirs.contains(s)) {
        return FileRole::Support;
    }
    if segs.last() == Some(&"build.rs") {
        return FileRole::Support;
    }
    FileRole::Lib
}

/// Compute the end line of the item following a token index: scan
/// forward; if a `;` appears before any `{`, the item ends there;
/// otherwise it ends at the `}` matching the first `{`.
fn item_end_line(scan: &Scan, from: usize) -> usize {
    let mut depth = 0usize;
    let mut entered = false;
    for tok in &scan.tokens[from..] {
        if tok.kind != TokenKind::Punct {
            continue;
        }
        match tok.text.as_str() {
            ";" if !entered => return tok.line,
            "{" => {
                depth += 1;
                entered = true;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                if entered && depth == 0 {
                    return tok.line;
                }
            }
            _ => {}
        }
    }
    scan.tokens.last().map(|t| t.line).unwrap_or(1)
}

/// Derive the test scopes of a scan.
pub(crate) fn test_scopes(scan: &Scan) -> Vec<Scope> {
    let mut tests = Vec::new();
    for (i, tok) in scan.tokens.iter().enumerate() {
        if tok.kind != TokenKind::Attr {
            continue;
        }
        let flat: String = tok.text.chars().filter(|c| !c.is_whitespace()).collect();
        let is_test = flat.contains("cfg(test)")
            || flat == "#[test]"
            || flat.contains("#[test]")
            || flat.contains("cfg(all(test");
        if is_test {
            tests.push(Scope {
                start: tok.line,
                end: item_end_line(scan, i + 1),
            });
        }
    }
    tests
}

impl Workspace {
    /// Load and analyze the workspace rooted at `root`.
    pub fn load(root: &Path) -> Result<Self, LoadError> {
        let root = root
            .canonicalize()
            .map_err(|e| LoadError(format!("bad root {}: {e}", root.display())))?;
        let root_manifest = read(&root.join("Cargo.toml"))?;

        // Expand members (supporting one trailing `/*` glob level).
        let mut members = Vec::new();
        for entry in manifest_members(&root_manifest) {
            if let Some(prefix) = entry.strip_suffix("/*") {
                let dir = root.join(prefix);
                let mut subdirs: Vec<PathBuf> = std::fs::read_dir(&dir)
                    .map_err(|e| LoadError(format!("cannot expand member glob {entry:?}: {e}")))?
                    .filter_map(|e| e.ok().map(|e| e.path()))
                    .filter(|p| p.is_dir())
                    .collect();
                subdirs.sort();
                for sub in subdirs {
                    if sub.join("Cargo.toml").is_file() {
                        members.push(rel(&root, &sub));
                    }
                }
            } else {
                members.push(entry);
            }
        }
        // The root package itself (workspace + package manifest).
        let mut member_list = Vec::new();
        if manifest_package_name(&root_manifest).is_some() {
            members.push(String::new());
        }
        members.sort();
        members.dedup();
        for dir in members {
            let manifest_path = if dir.is_empty() {
                root.join("Cargo.toml")
            } else {
                root.join(&dir).join("Cargo.toml")
            };
            let manifest = read(&manifest_path)?;
            let name = manifest_package_name(&manifest).unwrap_or_else(|| dir.clone());
            member_list.push(Member {
                name,
                dir,
                manifest,
            });
        }

        // Collect and scan sources.
        let mut paths = Vec::new();
        collect_rs(&root, &root, &mut paths)?;
        let mut files = Vec::new();
        for path in paths {
            let rel_path = rel(&root, &path);
            let text = read(&path)?;
            let scan = lexer::scan(&text);
            let test_scopes = test_scopes(&scan);
            // Owning member: longest dir prefix match.
            let crate_name = member_list
                .iter()
                .filter(|m| {
                    if m.dir.is_empty() {
                        // Root package owns only `src/` at the top level.
                        rel_path.starts_with("src/")
                    } else {
                        rel_path.starts_with(&format!("{}/", m.dir))
                    }
                })
                .max_by_key(|m| m.dir.len())
                .map(|m| m.name.clone());
            files.push(SourceFile {
                rel_path,
                crate_name,
                role: role_of(&rel(&root, &path)),
                scan,
                test_scopes,
            });
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

        let mut docs = BTreeMap::new();
        for doc in ["README.md", "DESIGN.md"] {
            if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
                docs.insert(doc.to_string(), text);
            }
        }

        Ok(Workspace {
            root_manifest,
            members: member_list,
            files,
            docs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_globs_and_names_parse() {
        let manifest = r#"
[workspace]
members = [
    "crates/a",
    "crates/shims/*",
]

[package]
name = "rootpkg"
"#;
        assert_eq!(
            manifest_members(manifest),
            vec!["crates/a", "crates/shims/*"]
        );
        assert_eq!(manifest_package_name(manifest).as_deref(), Some("rootpkg"));
    }

    #[test]
    fn cfg_test_scopes_cover_module_bodies() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        x.unwrap();\n    }\n}\n";
        let scan = lexer::scan(src);
        let tests = test_scopes(&scan);
        assert!(!tests.is_empty());
        assert!(tests[0].contains(6), "unwrap line inside cfg(test) mod");
        assert!(!tests.iter().any(|s| s.contains(1)), "lib fn not test code");
    }

    #[test]
    fn roles_split_lib_from_support() {
        assert_eq!(role_of("crates/nn/src/tensor.rs"), FileRole::Lib);
        assert_eq!(role_of("crates/nn/tests/training.rs"), FileRole::Support);
        assert_eq!(role_of("examples/quickstart.rs"), FileRole::Support);
        assert_eq!(
            role_of("crates/bench/benches/substrates.rs"),
            FileRole::Support
        );
        assert_eq!(role_of("crates/core/src/bin/tool.rs"), FileRole::Support);
        assert_eq!(role_of("build.rs"), FileRole::Support);
    }
}
