//! Stale-suppression detection (reported as *warnings* — they never
//! affect the exit code).
//!
//! A suppression that no longer suppresses anything is debt: it hides
//! the next real finding at that location and misleads readers about
//! which policies the code actually bends. Two kinds are detected:
//!
//! * **`stale-exclude`** — a `[lint] exclude` path that does not exist
//!   on disk.
//! * **`stale-allow`** — a `[checks.<ID>] allow` prefix that suppresses
//!   nothing: the check is *shadow-run* with its `allow` list stripped
//!   (per-file passes over the allowed files only, plus the workspace
//!   and semantic passes), and the entry is stale when no shadow
//!   finding falls under the prefix.
//!
//! Stale in-source justifications need no pass here: each is an
//! `#[expect(lint, reason = "…")]`, and rustc's
//! `unfulfilled_lint_expectations` fails the `-D warnings` clippy gates
//! once its site goes away.

use std::path::Path;

use crate::checks::Check;
use crate::config::Config;
use crate::diag::Finding;
use crate::model::Workspace;
use crate::model2::SemanticModel;

/// Compute all stale-suppression warnings for a finished run.
pub(crate) fn stale_suppressions(
    root: &Path,
    ws: &Workspace,
    model: &SemanticModel,
    cfg: &Config,
    catalog: &[Box<dyn Check>],
) -> Vec<Finding> {
    let mut out = Vec::new();
    stale_excludes(root, cfg, &mut out);
    stale_allows(ws, model, cfg, catalog, &mut out);
    out
}

fn stale_excludes(root: &Path, cfg: &Config, out: &mut Vec<Finding>) {
    for entry in cfg.list("lint", "exclude") {
        if !root.join(&entry).exists() {
            out.push(Finding {
                check: "stale-exclude",
                file: entry.clone(),
                line: 0,
                message: format!(
                    "`[lint] exclude` entry {entry:?} matches nothing on disk — remove it"
                ),
            });
        }
    }
}

fn under_prefix(path: &str, prefix: &str) -> bool {
    path == prefix || path.starts_with(&format!("{prefix}/"))
}

fn stale_allows(
    ws: &Workspace,
    model: &SemanticModel,
    cfg: &Config,
    catalog: &[Box<dyn Check>],
    out: &mut Vec<Finding>,
) {
    for check in catalog {
        let section = format!("checks.{}", check.id());
        let allows = cfg.list(&section, "allow");
        if allows.is_empty() {
            continue;
        }
        let shadow_cfg = cfg.without_key(&section, "allow");
        let mut shadow: Vec<Finding> = Vec::new();
        for file in &ws.files {
            if allows.iter().any(|p| under_prefix(&file.rel_path, p)) {
                check.check_file(file, &shadow_cfg, &mut shadow);
            }
        }
        check.check_workspace(ws, &shadow_cfg, &mut shadow);
        check.check_semantic(ws, model, &shadow_cfg, &mut shadow);
        for entry in &allows {
            let hit = shadow
                .iter()
                .any(|f| f.check == check.id() && under_prefix(&f.file, entry));
            if !hit {
                out.push(Finding {
                    check: "stale-allow",
                    file: String::new(),
                    line: 0,
                    message: format!(
                        "`[{section}] allow` entry {entry:?} suppresses no findings — remove it"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Member;

    #[test]
    fn missing_exclude_paths_are_reported() {
        let cfg = Config::parse("[lint]\nexclude = [\"no/such/dir\"]\n").expect("cfg");
        let mut out = Vec::new();
        stale_excludes(std::path::Path::new("/"), &cfg, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].check, "stale-exclude");
    }

    #[test]
    fn stale_and_live_allow_entries_are_distinguished() {
        // The F1 check forbids float equality against a non-zero
        // literal; one allowed file actually contains one (live allow),
        // the other allow entry points at a clean path (stale).
        let file = crate::testsupport::lib_file(
            "crates/demo/src/lib.rs",
            "demo",
            "pub fn is_one(x: f64) -> bool { x == 1.0 }\n",
        );
        let ws = Workspace {
            root: std::path::PathBuf::from("."),
            root_manifest: String::new(),
            members: vec![Member {
                name: "demo".into(),
                dir: "crates/demo".into(),
                manifest: String::new(),
            }],
            files: vec![file],
            docs: Default::default(),
        };
        let cfg =
            Config::parse("[checks.F1]\nallow = [\"crates/demo/src/lib.rs\", \"crates/ghost\"]\n")
                .expect("cfg");
        let model = SemanticModel::build(&ws);
        let catalog = crate::checks::catalog();
        let mut out = Vec::new();
        stale_allows(&ws, &model, &cfg, &catalog, &mut out);
        let stale: Vec<&Finding> = out.iter().filter(|f| f.check == "stale-allow").collect();
        assert_eq!(stale.len(), 1, "{out:?}");
        assert!(stale[0].message.contains("ghost"));
    }
}
