//! **E2 — cycle-accounting audit.**
//!
//! The paper's fault-detection economics only hold if every detection
//! campaign's cost lands in the flow's accounting: a function that
//! returns one of [`PRODUCER_TYPES`] whose result never reaches one of
//! the [`SINK_IDENTS`] ledgers is a campaign whose read pulses and test
//! cycles silently vanish from the write-pulse / cycle ledgers
//! (DESIGN.md §4).
//!
//! The audit is caller-driven: for each producer fn, walk the *reverse*
//! approximate call graph up to [`MAX_DEPTH`] hops. The producer is
//! accounted when it — or any transitive caller in that window,
//! signature included (sinks are often `&mut FlowStats` parameters) —
//! mentions a sink ident. Producers with no known callers are skipped:
//! a library leaf's accounting obligation falls on whoever eventually
//! calls it, and the call-graph approximation cannot see external
//! callers. [`EXEMPT_FNS`] names the producers outside the accounting
//! contract.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::model::{FileRole, Workspace};
use crate::model2::SemanticModel;

pub(super) const ID: &str = "E2";

/// Return types that carry a campaign's cost: a chip campaign's
/// `DetectionOutcome` and the mapped network's per-layer
/// `LayerDetection`.
const PRODUCER_TYPES: [&str; 2] = ["DetectionOutcome", "LayerDetection"];

/// The ledgers that account a campaign. `FlowStats` is the flow's.
/// `CampaignStats` is the chip-level ledger `FlowStats` absorbs
/// (DESIGN.md §4), so a caller folding outcomes into it is accounted.
/// `StrategyCost` is the strategy layer's (DESIGN.md §14): campaign
/// code behind the `FaultStrategy` trait (ftt-strategy's
/// redundant-column sweep, `DetectRemap`'s detection phase) absorbs its
/// cycles there, and the flow prices that ledger into `FlowStats`
/// alongside detection.
const SINK_IDENTS: [&str; 3] = ["FlowStats", "CampaignStats", "StrategyCost"];

/// Caller hops walked from a producer before it counts as unaccounted.
/// The bound keeps the audit local: a sink mentioned further out is
/// more likely an unrelated ledger than this campaign's.
const MAX_DEPTH: usize = 3;

/// Producers outside the accounting contract. `to_outcome` rebuilds an
/// outcome from a snapshot during restore; its cost was ledgered when
/// the original campaign ran. `run` is `OnlineFaultDetector`'s one-shot
/// campaign for experiments and harnesses (it attaches a store and
/// drops it); no flow calls it. Flow campaigns run on each tile's
/// persistent store through `run_on_store`, whose caller
/// `TiledChip::run_campaigns` feeds `CampaignStats`.
const EXEMPT_FNS: [&str; 2] = ["to_outcome", "run"];

/// Token index of the `fn` keyword introducing the fn whose body opens
/// at `body_open` (backward scan, bounded).
fn sig_start(toks: &[Token], body_open: usize) -> usize {
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
fn mentions_sink(ws: &Workspace, model: &SemanticModel, id: usize) -> bool {
    let f = &model.fns[id];
    let toks = &ws.files[f.file].scan.tokens;
    let start = sig_start(toks, f.body.0);
    toks.iter()
        .take(f.body.1 + 1)
        .skip(start)
        .any(|t| t.kind == TokenKind::Ident && SINK_IDENTS.contains(&t.text.as_str()))
}

/// E2 over the semantic model: every producer with a caller is
/// accounted within `MAX_DEPTH` hops.
pub fn cycle_audit(ws: &Workspace, model: &SemanticModel, out: &mut Vec<Finding>) {
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
        let produced = f
            .ret_idents
            .iter()
            .find(|r| PRODUCER_TYPES.contains(&r.as_str()));
        let Some(produced) = produced else { continue };
        if f.is_test || f.role != FileRole::Lib || EXEMPT_FNS.contains(&f.name.as_str()) {
            continue;
        }
        let direct = callers.get(&pid);
        if direct.map(|s| s.is_empty()).unwrap_or(true) {
            // Library leaf: accounting falls on external callers the
            // approximate graph cannot see.
            continue;
        }
        // BFS outward over callers, up to MAX_DEPTH hops.
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        seen.insert(pid);
        let mut frontier: Vec<usize> = vec![pid];
        let mut accounted = mentions_sink(ws, model, pid);
        let mut depth = 0;
        while !accounted && depth < MAX_DEPTH && !frontier.is_empty() {
            depth += 1;
            let mut next = Vec::new();
            for &id in &frontier {
                for &c in callers.get(&id).map(|s| s.iter()).into_iter().flatten() {
                    if seen.insert(c) {
                        if mentions_sink(ws, model, c) {
                            accounted = true;
                        }
                        next.push(c);
                    }
                }
            }
            frontier = next;
        }
        if !accounted {
            out.push(Finding {
                check: ID,
                file: ws.files[f.file].rel_path.clone(),
                line: f.line,
                message: format!(
                    "`{}` produces `{produced}` but no caller within {MAX_DEPTH} hops \
                     feeds the accounting sinks ({}) — detection cost vanishes from \
                     the cycle ledger",
                    f.name,
                    SINK_IDENTS.join(", ")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{lib_file, workspace};

    fn run(src: &str) -> Vec<Finding> {
        let ws = workspace(vec![lib_file("crates/demo/src/lib.rs", "demo", src)]);
        let mut out = Vec::new();
        cycle_audit(&ws, &SemanticModel::build(&ws), &mut out);
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
        let out = run(src); // sink is 4 hops out, past MAX_DEPTH
        assert_eq!(out.len(), 1, "{out:?}");
    }
}
