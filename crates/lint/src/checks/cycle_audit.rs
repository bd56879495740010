//! **E2 — cycle-accounting audit.**
//!
//! The paper's fault-detection economics only hold if every detection
//! campaign's cost lands in the flow's accounting: a function that
//! produces a `DetectionOutcome` (configurable via `producer_types`)
//! whose result never reaches a `FlowStats` sink (configurable via
//! `sink_idents`) is a campaign whose read pulses and test cycles
//! silently vanish from the write-pulse / cycle ledgers (DESIGN.md §4).
//!
//! The audit is caller-driven: for each producer fn, walk the *reverse*
//! approximate call graph up to `max_depth` hops (default 3). The
//! producer is accounted when it — or any transitive caller in that
//! window, signature included (sinks are often `&mut FlowStats`
//! parameters) — mentions a sink ident.
//! Producers with no known callers are skipped: a library leaf's
//! accounting obligation falls on whoever eventually calls it, and the
//! call-graph approximation cannot see external callers.
//!
//! `exempt_fns` names producers outside the accounting contract —
//! rehydrators that rebuild an outcome from serialized state (snapshot
//! restore) re-materialize cost that was already ledgered when the
//! campaign originally ran.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::model::Workspace;
use crate::model2::SemanticModel;

use super::{path_allowed, Check};

/// Cycle-accounting audit (see module docs).
pub struct CycleAudit;

const DEFAULT_PRODUCER_TYPES: [&str; 1] = ["DetectionOutcome"];
const DEFAULT_SINK_IDENTS: [&str; 1] = ["FlowStats"];

fn cfg_list_or(cfg: &Config, key: &str, default: &[&str]) -> Vec<String> {
    let v = cfg.list("checks.E2", key);
    if v.is_empty() {
        default.iter().map(|s| s.to_string()).collect()
    } else {
        v
    }
}

/// Token index of the `fn` keyword introducing the fn whose body opens
/// at `body_open` (backward scan, bounded).
fn sig_start(toks: &[crate::lexer::Token], body_open: usize) -> usize {
    let lo = body_open.saturating_sub(512);
    let mut j = body_open;
    while j > lo {
        j -= 1;
        if toks[j].kind == TokenKind::Ident && toks[j].text == "fn" {
            return j;
        }
    }
    body_open
}

/// Whether the fn (signature + body) mentions a sink ident.
fn mentions_sink(ws: &Workspace, model: &SemanticModel, id: usize, sink_idents: &[String]) -> bool {
    let f = &model.fns[id];
    let toks = &ws.files[f.file].scan.tokens;
    let start = sig_start(toks, f.body.0);
    toks.iter()
        .take(f.body.1 + 1)
        .skip(start)
        .any(|t| t.kind == TokenKind::Ident && sink_idents.contains(&t.text))
}

impl Check for CycleAudit {
    fn id(&self) -> &'static str {
        "E2"
    }

    fn description(&self) -> &'static str {
        "every DetectionOutcome producer's callers feed the FlowStats accounting within max_depth"
    }

    fn check_semantic(
        &self,
        ws: &Workspace,
        model: &SemanticModel,
        cfg: &Config,
        out: &mut Vec<Finding>,
    ) {
        let producer_types = cfg_list_or(cfg, "producer_types", &DEFAULT_PRODUCER_TYPES);
        let sink_idents = cfg_list_or(cfg, "sink_idents", &DEFAULT_SINK_IDENTS);
        let exempt_fns = cfg.list("checks.E2", "exempt_fns");
        let max_depth = cfg.int("checks.E2", "max_depth", 3).max(1) as usize;

        // Reverse call graph (non-test callers only).
        let mut callers: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for (cid, f) in model.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            for call in &f.calls {
                for callee in model.resolve(&f.crate_name, call) {
                    if callee != cid {
                        callers.entry(callee).or_default().insert(cid);
                    }
                }
            }
        }

        for (pid, f) in model.fns.iter().enumerate() {
            if f.is_test
                || f.role != crate::model::FileRole::Lib
                || !f.ret_idents.iter().any(|r| producer_types.contains(r))
                || exempt_fns.contains(&f.name)
            {
                continue;
            }
            let file = &ws.files[f.file];
            if path_allowed(cfg, self.id(), &file.rel_path) {
                continue;
            }
            let direct = callers.get(&pid);
            if direct.map(|s| s.is_empty()).unwrap_or(true) {
                // Library leaf: accounting falls on external callers the
                // approximate graph cannot see.
                continue;
            }
            // BFS outward over callers, up to max_depth hops.
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            seen.insert(pid);
            let mut frontier: Vec<usize> = vec![pid];
            let mut accounted = mentions_sink(ws, model, pid, &sink_idents);
            let mut depth = 0;
            while !accounted && depth < max_depth && !frontier.is_empty() {
                depth += 1;
                let mut next = Vec::new();
                for &id in &frontier {
                    for &c in callers.get(&id).map(|s| s.iter()).into_iter().flatten() {
                        if seen.insert(c) {
                            if mentions_sink(ws, model, c, &sink_idents) {
                                accounted = true;
                            }
                            next.push(c);
                        }
                    }
                }
                frontier = next;
            }
            if !accounted {
                let produced = f
                    .ret_idents
                    .iter()
                    .find(|r| producer_types.contains(r))
                    .cloned()
                    .unwrap_or_default();
                out.push(Finding {
                    check: self.id(),
                    file: file.rel_path.clone(),
                    line: f.line,
                    message: format!(
                        "`{}` produces `{produced}` but no caller within {max_depth} hops \
                         feeds the accounting sinks ({}) — detection cost vanishes from \
                         the cycle ledger",
                        f.name,
                        sink_idents.join(", ")
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

    fn ws_of(src: &str) -> Workspace {
        Workspace {
            root: std::path::PathBuf::from("."),
            root_manifest: String::new(),
            members: vec![Member {
                name: "demo".into(),
                dir: "crates/demo".into(),
                manifest: String::new(),
            }],
            files: vec![crate::testsupport::lib_file(
                "crates/demo/src/lib.rs",
                "demo",
                src,
            )],
            docs: Default::default(),
        }
    }

    fn run(src: &str) -> Vec<Finding> {
        let ws = ws_of(src);
        let cfg = Config::parse("[checks.E2]\n").expect("cfg");
        let model = SemanticModel::build(&ws);
        let mut out = Vec::new();
        CycleAudit.check_semantic(&ws, &model, &cfg, &mut out);
        out
    }

    #[test]
    fn unaccounted_producer_is_flagged() {
        let out = run(
            "fn detect() -> DetectionOutcome { DetectionOutcome::default() }\nfn driver() { let _o = detect(); }\n",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("detect"));
        assert!(out[0].message.contains("FlowStats"));
    }

    #[test]
    fn caller_feeding_flow_stats_accounts_the_producer() {
        let out = run(
            "fn detect() -> DetectionOutcome { DetectionOutcome::default() }\nfn driver(stats: &mut FlowStats) { stats.absorb(detect()); }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn signature_mention_counts() {
        let out = run(
            "fn detect(stats: &mut FlowStats) -> DetectionOutcome { DetectionOutcome::default() }\nfn driver() { }\nfn call(s: &mut FlowStats) { let _ = detect(s); }\n",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn leaf_producer_without_callers_is_skipped() {
        let out = run("pub fn detect() -> DetectionOutcome { DetectionOutcome::default() }\n");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn accounting_beyond_max_depth_is_not_seen() {
        let src = "\
fn detect() -> DetectionOutcome { DetectionOutcome::default() }\n\
fn a() { let _ = detect(); }\n\
fn b() { a(); }\n\
fn c() { b(); }\n\
fn d(stats: &mut FlowStats) { c(); }\n";
        let out = run(src); // sink is 4 hops out, past the default 3
        assert_eq!(out.len(), 1, "{out:?}");
    }
}
