//! **C1 — par-capture determinism.**
//!
//! Closures passed to the `par` fork-join helpers (`map_indices` /
//! `for_each_chunk_mut` / `for_each_row_block_mut`) run concurrently
//! across the worker budget, so the determinism contract (DESIGN.md §6)
//! forbids them from:
//!
//! * **calling shared-mutation methods** ([`MUTATION_METHODS`]:
//!   `fetch_add`, `store`, `lock`, …) — atomics and locks make
//!   the data race disappear but keep the ordering nondeterminism;
//! * **constructing RNGs without a per-index salt** — an RNG seeded
//!   identically in every worker (or from a captured value only) either
//!   duplicates streams or, if shared, interleaves nondeterministically.
//!   A constructor call ([`RNG_CTORS`]) is accepted when its arguments
//!   mention a closure parameter or a closure-local binding (the
//!   established `sim_rng(seed.wrapping_add(salt))` idiom).
//!
//! Assigning to a captured binding needs no rule here: the helpers take
//! `Fn + Sync` closures, so `total += i` on a capture is rustc error
//! E0594 and a `Cell` capture is E0277.
//!
//! Test-scoped call sites are exempt (tests deliberately exercise racy
//! shapes).

use std::collections::BTreeSet;

use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::model::Workspace;
use crate::model2::{ClosureArg, SemanticModel};

pub(super) const ID: &str = "C1";

/// Shared-mutation methods: the atomic read-modify-write and store
/// family plus `lock`. They cover the interior-mutability APIs the
/// workspace has; extend the list when a new one appears.
const MUTATION_METHODS: [&str; 10] = [
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

/// RNG constructors: the workspace's `rram::rng::sim_rng(seed + salt)`
/// idiom and the `rand` seeding entry points. Extend the list when a
/// new constructor appears.
const RNG_CTORS: [&str; 4] = ["sim_rng", "seed_from_u64", "from_seed", "from_entropy"];

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

/// C1 over every non-test `par` call site: its closures call no
/// shared-mutation method and build no unsalted RNG.
pub fn par_capture(ws: &Workspace, model: &SemanticModel, out: &mut Vec<Finding>) {
    for pc in &model.par_calls {
        if pc.is_test {
            continue;
        }
        let file = &ws.files[pc.file];
        let toks = &file.scan.tokens;
        for cl in &pc.closures {
            let declared = declared_idents(toks, cl);
            let (b0, b1) = cl.body;
            for i in b0..b1 {
                let t = &toks[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let called = toks.get(i + 1).map(|n| n.text == "(").unwrap_or(false);
                if !called {
                    continue;
                }
                // Shared-mutation method on any receiver.
                if i > b0 && toks[i - 1].text == "." && MUTATION_METHODS.contains(&t.text.as_str())
                {
                    out.push(Finding {
                        check: ID,
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
                // RNG construction without a per-index salt.
                if RNG_CTORS.contains(&t.text.as_str()) {
                    let salted = salt_mentions_local(toks, i + 1, b1, &declared);
                    if !salted {
                        out.push(Finding {
                            check: ID,
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
    use crate::testsupport::{lib_file, workspace};

    fn run(src: &str) -> Vec<Finding> {
        let ws = workspace(vec![lib_file("crates/demo/src/lib.rs", "demo", src)]);
        let mut out = Vec::new();
        par_capture(&ws, &SemanticModel::build(&ws), &mut out);
        out
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
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        par::map_indices(8, 1, |i| { c.fetch_add(i, Ordering::Relaxed); i });\n    }\n}\n",
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
