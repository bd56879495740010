//! **C1 — par-capture determinism.**
//!
//! Closures passed to the `par` fork-join helpers (`map_indices` /
//! `for_each_chunk_mut` / `for_each_row_block_mut`) run concurrently
//! across the worker budget, so the determinism contract (DESIGN.md §6)
//! forbids them from:
//!
//! * **mutating captured bindings** — an assignment whose target is not
//!   a closure parameter or a local declared inside the closure races
//!   across workers (or compiles only through shared interior
//!   mutability, which reorders);
//! * **calling shared-mutation methods** (`fetch_add`, `store`, `lock`,
//!   … — configurable via `mutation_methods`) — atomics and locks make
//!   the data race disappear but keep the ordering nondeterminism;
//! * **constructing RNGs without a per-index salt** — an RNG seeded
//!   identically in every worker (or from a captured value only) either
//!   duplicates streams or, if shared, interleaves nondeterministically.
//!   A constructor call (`rng_ctors`) is accepted when its arguments
//!   mention a closure parameter or a closure-local binding (the
//!   established `sim_rng(seed.wrapping_add(salt))` idiom).
//!
//! Test-scoped call sites are exempt (tests deliberately exercise racy
//! shapes); `allow` path prefixes exempt whole files.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::model::Workspace;
use crate::model2::{ClosureArg, SemanticModel};

use super::{path_allowed, Check};

/// Par-capture determinism check (see module docs).
pub struct ParCapture;

const DEFAULT_MUTATION_METHODS: [&str; 10] = [
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_xor",
    "fetch_and",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "lock",
];

const DEFAULT_RNG_CTORS: [&str; 4] = ["sim_rng", "seed_from_u64", "from_seed", "from_entropy"];

fn cfg_list_or(cfg: &Config, key: &str, default: &[&str]) -> Vec<String> {
    let v = cfg.list("checks.C1", key);
    if v.is_empty() {
        default.iter().map(|s| s.to_string()).collect()
    } else {
        v
    }
}

/// Idents *declared inside* the closure: parameters, `let` bindings,
/// `for` patterns, and inner-closure parameters. Over-collection (type
/// idents after `:`) only makes the check more lenient.
fn declared_idents(toks: &[Token], cl: &ClosureArg) -> BTreeSet<String> {
    let mut declared: BTreeSet<String> = cl.params.iter().cloned().collect();
    let (b0, b1) = cl.body;
    let mut i = b0;
    while i < b1 {
        let t = &toks[i];
        if t.kind == TokenKind::Ident && (t.text == "let" || t.text == "for") {
            let stop: &[&str] = if t.text == "let" {
                &["=", ";"]
            } else {
                &["in"]
            };
            let mut j = i + 1;
            while j < b1 && !stop.contains(&toks[j].text.as_str()) {
                if toks[j].kind == TokenKind::Ident {
                    declared.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j;
        } else if t.kind == TokenKind::Punct && t.text == "|" {
            // Inner closure params (conservative: also matches bitwise
            // or, which only widens the accept-set).
            let mut j = i + 1;
            while j < b1 && toks[j].text != "|" && toks[j].text != ";" {
                if toks[j].kind == TokenKind::Ident {
                    declared.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    declared
}

/// Root ident of the assignment target left of the `=` at `eq`, or
/// `None` when the target shape is not a plain place expression.
fn assign_target_root(toks: &[Token], b0: usize, eq: usize) -> Option<String> {
    let mut j = eq.checked_sub(1)?;
    if j < b0 {
        return None;
    }
    const COMPOUND_OPS: [&str; 8] = ["+", "-", "*", "/", "%", "&", "|", "^"];
    if toks[j].kind == TokenKind::Punct && COMPOUND_OPS.contains(&toks[j].text.as_str()) {
        j = j.checked_sub(1)?;
    }
    let mut steps = 0;
    loop {
        if j < b0 || steps > 64 {
            return None;
        }
        steps += 1;
        let t = &toks[j];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "]") => {
                // Skip the index expression back to its `[`.
                let mut depth = 1i64;
                while depth > 0 {
                    j = j.checked_sub(1)?;
                    if j < b0 {
                        return None;
                    }
                    match toks[j].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        _ => {}
                    }
                }
                j = j.checked_sub(1)?;
            }
            (TokenKind::Ident, name) => {
                if j > b0 && matches!(toks[j - 1].text.as_str(), "." | "::") {
                    j = match j.checked_sub(2) {
                        Some(v) => v,
                        None => return Some(name.to_string()),
                    };
                } else {
                    return Some(name.to_string());
                }
            }
            _ => return None,
        }
    }
}

impl Check for ParCapture {
    fn id(&self) -> &'static str {
        "C1"
    }

    fn description(&self) -> &'static str {
        "closures crossing par boundaries must not mutate captures or build unsalted RNGs"
    }

    fn check_semantic(
        &self,
        ws: &Workspace,
        model: &SemanticModel,
        cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        let mutation_methods = cfg_list_or(cfg, "mutation_methods", &DEFAULT_MUTATION_METHODS);
        let rng_ctors = cfg_list_or(cfg, "rng_ctors", &DEFAULT_RNG_CTORS);

        for pc in &model.par_calls {
            if pc.is_test {
                continue;
            }
            let file = &ws.files[pc.file];
            if path_allowed(cfg, self.id(), &file.rel_path) {
                continue;
            }
            let toks = &file.scan.tokens;
            for cl in &pc.closures {
                let declared = declared_idents(toks, cl);
                let (b0, b1) = cl.body;
                for i in b0..b1 {
                    let t = &toks[i];
                    // (a) assignment to a captured binding.
                    if t.kind == TokenKind::Punct && t.text == "=" {
                        if let Some(root) = assign_target_root(toks, b0, i) {
                            if !declared.contains(&root) {
                                out.push(Finding {
                                    check: self.id(),
                                    file: file.rel_path.clone(),
                                    line: t.line,
                                    message: format!(
                                        "closure passed to `par::{}` mutates captured binding \
                                         `{root}` (nondeterministic across worker schedules)",
                                        pc.helper
                                    ),
                                });
                            }
                        }
                        continue;
                    }
                    if t.kind != TokenKind::Ident {
                        continue;
                    }
                    let called = toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false);
                    if !called {
                        continue;
                    }
                    // (b) shared-mutation method on any receiver.
                    if i > b0
                        && toks[i - 1].text == "."
                        && mutation_methods.iter().any(|m| m == &t.text)
                    {
                        out.push(Finding {
                            check: self.id(),
                            file: file.rel_path.clone(),
                            line: t.line,
                            message: format!(
                                "closure passed to `par::{}` calls shared-mutation method \
                                 `.{}()` (ordering is nondeterministic across workers)",
                                pc.helper, t.text
                            ),
                        });
                        continue;
                    }
                    // (c) RNG construction without a per-index salt.
                    if rng_ctors.iter().any(|c| c == &t.text) {
                        let salted = salt_mentions_local(toks, i + 1, b1, &declared);
                        if !salted {
                            out.push(Finding {
                                check: self.id(),
                                file: file.rel_path.clone(),
                                line: t.line,
                                message: format!(
                                    "closure passed to `par::{}` constructs an RNG via `{}(..)` \
                                     without a per-index salt (seed must mention a closure \
                                     parameter or local)",
                                    pc.helper, t.text
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Whether the argument tokens of the call opening at `open` mention a
/// closure parameter or closure-local binding (the per-index salt).
fn salt_mentions_local(
    toks: &[Token],
    open: usize,
    limit: usize,
    declared: &BTreeSet<String>,
) -> bool {
    let mut depth = 0i64;
    for t in toks.iter().take(limit).skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
        } else if t.kind == TokenKind::Ident && declared.contains(&t.text) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Member, Workspace};

    fn run(src: &str) -> Vec<Finding> {
        let cfg = Config::parse("[checks.C1]\n").expect("cfg");
        let file = crate::testsupport::lib_file("crates/demo/src/lib.rs", "demo", src);
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
        let model = SemanticModel::build(&ws);
        let mut out = Vec::new();
        ParCapture.check_semantic(&ws, &model, &cfg, &mut out);
        out
    }

    #[test]
    fn captured_mutation_is_flagged() {
        let out = run(
            "fn f(n: usize) {\n    let mut total = 0usize;\n    par::map_indices(n, 1, |i| {\n        total += i;\n        i\n    });\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("total"));
    }

    #[test]
    fn param_and_local_mutation_is_fine() {
        let out = run(
            "fn f(data: &mut [f32]) {\n    par::for_each_chunk_mut(data, 1, |start, chunk| {\n        let mut acc = 0.0;\n        for (k, v) in chunk.iter_mut().enumerate() {\n            acc += 1.0;\n            *v = (start + k) as f32 + acc;\n        }\n    });\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn atomic_mutation_is_flagged() {
        let out = run(
            "fn f(n: usize, c: &std::sync::atomic::AtomicUsize) {\n    par::map_indices(n, 1, |i| {\n        c.fetch_add(i, Ordering::Relaxed);\n        i\n    });\n}\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("fetch_add"));
    }

    #[test]
    fn unsalted_rng_is_flagged_salted_is_not() {
        let bad = run(
            "fn f(n: usize, seed: u64) {\n    par::map_indices(n, 1, |_i| {\n        let rng = sim_rng(seed);\n        rng\n    });\n}\n",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("per-index salt"));
        let ok = run(
            "fn f(n: usize, seed: u64) {\n    par::map_indices(n, 1, |i| {\n        let salt = 0x9e37u64.wrapping_mul(i as u64);\n        let rng = sim_rng(seed.wrapping_add(salt));\n        rng\n    });\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn test_scoped_call_sites_are_exempt() {
        let out = run(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let mut total = 0;\n        par::map_indices(8, 1, |i| { total += i; i });\n    }\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn inner_closure_params_are_declared() {
        let out = run(
            "fn f(data: &mut [f32]) {\n    par::for_each_chunk_mut(data, 1, |_start, chunk| {\n        chunk.iter_mut().for_each(|v| *v = 0.0);\n    });\n}\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
