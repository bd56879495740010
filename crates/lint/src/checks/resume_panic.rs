//! **R1 — resume-path panic freedom.**
//!
//! The crash-recovery contract (DESIGN.md §8) says restore and the
//! service tick loop must degrade, not die: a panic while replaying a
//! snapshot or inside `Service::tick()` turns a recoverable fault into
//! a stuck deployment. R1 walks the approximate call graph from the
//! configured `roots` (default `ftt-snapshot::resume` and
//! `ftt-serve::Service::tick`) and reports every *reachable* panic site
//! in library code that is not inside a panic-lint `#[expect(..)]` /
//! `#[allow(..)]` scope (e.g. `#[expect(clippy::expect_used, reason =
//! "…")]` on the statement or its enclosing fn) — the same escape hatch
//! the `--lib` clippy gate accepts.
//!
//! Unlike that gate (which covers a fixed crate list), R1 is transitive:
//! it follows name-resolved calls across every crate the roots can
//! reach, so a helper crate outside the gate still cannot smuggle an
//! `.unwrap()` under the resume path. The call graph over-approximates
//! (see `model2`), so findings name the root that reaches them —
//! suppression is per-site, by the same `#[expect]`.

use std::collections::BTreeMap;

use crate::config::Config;
use crate::diag::Finding;
use crate::model::{FileRole, Workspace};
use crate::model2::SemanticModel;

use super::{path_allowed, Check};

/// Resume-path panic-freedom check (see module docs).
pub struct ResumePanic;

const DEFAULT_ROOTS: [&str; 2] = ["ftt-snapshot::resume", "ftt-serve::Service::tick"];

/// A parsed root spec: `crate::fn` or `crate::Type::fn`.
struct RootSpec {
    krate: String,
    impl_type: Option<String>,
    name: String,
    display: String,
}

fn parse_roots(cfg: &Config) -> Vec<RootSpec> {
    let mut specs = cfg.list("checks.R1", "roots");
    if specs.is_empty() {
        specs = DEFAULT_ROOTS.iter().map(|s| s.to_string()).collect();
    }
    specs
        .iter()
        .filter_map(|s| {
            let parts: Vec<&str> = s.split("::").collect();
            match parts.as_slice() {
                [krate, name] => Some(RootSpec {
                    krate: krate.to_string(),
                    impl_type: None,
                    name: name.to_string(),
                    display: s.clone(),
                }),
                [krate, ty, name] => Some(RootSpec {
                    krate: krate.to_string(),
                    impl_type: Some(ty.to_string()),
                    name: name.to_string(),
                    display: s.clone(),
                }),
                _ => None,
            }
        })
        .collect()
}

impl Check for ResumePanic {
    fn id(&self) -> &'static str {
        "R1"
    }

    fn description(&self) -> &'static str {
        "no unjustified panic site is reachable from resume/tick roots"
    }

    fn check_semantic(
        &self,
        ws: &Workspace,
        model: &SemanticModel,
        cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        let roots = parse_roots(cfg);

        // BFS from every root over the name-resolved call graph.
        // `reached` maps fn index -> display name of the first root that
        // reaches it (deterministic: roots in config order, FIFO queue,
        // `resolve` returns ascending indices).
        let mut reached: BTreeMap<usize, String> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for root in &roots {
            for (i, f) in model.fns.iter().enumerate() {
                if f.name == root.name
                    && f.crate_name == root.krate
                    && !f.is_test
                    && (root.impl_type.is_none() || f.impl_type == root.impl_type)
                    && !reached.contains_key(&i)
                {
                    reached.insert(i, root.display.clone());
                    queue.push(i);
                }
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            let origin = reached.get(&id).cloned().unwrap_or_default();
            let crate_name = model.fns[id].crate_name.clone();
            for call in &model.fns[id].calls {
                for cid in model.resolve(&crate_name, call) {
                    reached.entry(cid).or_insert_with(|| {
                        queue.push(cid);
                        origin.clone()
                    });
                }
            }
        }

        // Report unjustified panic sites in reached library code.
        for (&id, origin) in &reached {
            let f = &model.fns[id];
            if f.is_test || f.role != FileRole::Lib {
                continue;
            }
            let file = &ws.files[f.file];
            if path_allowed(cfg, self.id(), &file.rel_path) {
                continue;
            }
            for site in &f.panic_sites {
                if file.in_test_code(site.line) || file.in_panic_allow(site.line) {
                    continue;
                }
                out.push(Finding {
                    check: self.id(),
                    file: file.rel_path.clone(),
                    line: site.line,
                    message: format!(
                        "`{}` in `{}` is reachable from `{}` outside a panic-lint #[expect] \
                         (resume paths must degrade, not die)",
                        site.what, f.name, origin
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Member, Workspace};

    fn ws_of(files: Vec<(&str, &str, &str)>) -> Workspace {
        let members = files
            .iter()
            .map(|(_, krate, _)| Member {
                name: krate.to_string(),
                dir: format!("crates/{krate}"),
                manifest: format!("[dependencies]\n{}\n", {
                    // every crate depends on every other (test convenience)
                    files
                        .iter()
                        .map(|(_, k, _)| format!("{k} = {{ path = \"..\" }}"))
                        .collect::<Vec<_>>()
                        .join("\n")
                }),
            })
            .collect();
        let files = files
            .into_iter()
            .map(|(path, krate, src)| crate::testsupport::lib_file(path, krate, src))
            .collect();
        Workspace {
            root: std::path::PathBuf::from("."),
            root_manifest: String::new(),
            members,
            files,
            docs: Default::default(),
        }
    }

    fn run(ws: &Workspace, cfg: &str) -> Vec<Finding> {
        let cfg = Config::parse(cfg).expect("cfg");
        let model = SemanticModel::build(ws);
        let mut out = Vec::new();
        ResumePanic.check_semantic(ws, &model, &cfg, &mut out);
        out
    }

    const CFG: &str = "[checks.R1]\nroots = [\"app::resume\"]\n";

    #[test]
    fn transitive_panic_site_is_flagged() {
        let ws = ws_of(vec![
            (
                "crates/app/src/lib.rs",
                "app",
                "pub fn resume() { helper(); }\n",
            ),
            (
                "crates/util/src/lib.rs",
                "util",
                "pub fn helper() { deeper(); }\nfn deeper() { inner().unwrap(); }\nfn inner() -> Option<u8> { None }\n",
            ),
        ]);
        let out = run(&ws, CFG);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains(".unwrap()"));
        assert!(out[0].message.contains("app::resume"));
    }

    #[test]
    fn unreachable_panic_site_is_ignored() {
        let ws = ws_of(vec![
            (
                "crates/app/src/lib.rs",
                "app",
                "pub fn resume() { safe(); }\nfn safe() {}\nfn island() { panic!(\"never on the resume path\") }\n",
            ),
        ]);
        // `island` is never called from resume; the clippy gate owns it,
        // R1 does not.
        assert!(run(&ws, CFG).is_empty());
    }

    #[test]
    fn panic_lint_expect_justifies_the_site() {
        let on_statement = ws_of(vec![(
            "crates/app/src/lib.rs",
            "app",
            "pub fn resume() {\n    #[expect(clippy::unwrap_used, reason = \"table is seeded\")]\n    let _ = table().unwrap();\n}\nfn table() -> Option<u8> { Some(1) }\n",
        )]);
        assert!(run(&on_statement, CFG).is_empty());
        let on_fn = ws_of(vec![(
            "crates/app/src/lib.rs",
            "app",
            "#[expect(clippy::unwrap_used, reason = \"table is seeded\")]\npub fn resume() {\n    table().unwrap();\n}\nfn table() -> Option<u8> { Some(1) }\n",
        )]);
        assert!(run(&on_fn, CFG).is_empty());
    }

    #[test]
    fn other_lint_expect_does_not_justify_the_site() {
        let ws = ws_of(vec![(
            "crates/app/src/lib.rs",
            "app",
            "#[expect(dead_code, reason = \"kept for later\")]\npub fn resume() {\n    table().unwrap();\n}\nfn table() -> Option<u8> { Some(1) }\n",
        )]);
        let out = run(&ws, CFG);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains(".unwrap()"));
    }

    #[test]
    fn typed_root_pins_the_impl() {
        let ws = ws_of(vec![(
            "crates/app/src/lib.rs",
            "app",
            "pub struct Service;\nimpl Service {\n    pub fn tick(&self) { go(); }\n}\npub struct Other;\nimpl Other {\n    pub fn tick(&self) { bad(); }\n}\nfn go() {}\nfn bad() { x().unwrap(); }\nfn x() -> Option<u8> { None }\n",
        )]);
        let out = run(&ws, "[checks.R1]\nroots = [\"app::Service::tick\"]\n");
        assert!(out.is_empty(), "{out:?}");
        let out = run(&ws, "[checks.R1]\nroots = [\"app::Other::tick\"]\n");
        assert_eq!(out.len(), 1, "{out:?}");
    }
}
