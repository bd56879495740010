//! **O2 — obs schema consistency.**
//!
//! Cross-crate companion to the per-site O1 grammar check:
//!
//! * **Event coverage** — every variant of `obs::Event` must have at
//!   least one emitter outside the `obs` crate: a `Event::Variant`
//!   token sequence on a non-test line. A variant nobody emits is a
//!   schema entry consumers will wait on forever.
//! * **Metric-family consistency** — a metric *name* (string literal
//!   passed to a registry constructor) must always be registered under
//!   one family (counter / gauge / histogram, labeled and value
//!   variants included). The same name registered as a counter in one
//!   crate and a gauge in another silently splits the Prometheus
//!   export. Span names live in their own namespace and are excluded.
//!
//! Mentions in pattern position (`match e { Event::X(..) => .. }`)
//! count as emitters — a name-based model cannot tell construction from
//! matching, and the lenient direction is the safe one. Test-scoped
//! sites are ignored for both halves (tests deliberately mix kinds).

use std::collections::BTreeMap;

use crate::diag::Finding;
use crate::lexer::TokenKind;
use crate::model::Workspace;

use super::obs_policy::{strip_quotes, REGISTRY_FNS};

pub(super) const ID: &str = "O2";

/// The crate that defines the event schema: `obs` owns the structured
/// event stream that `replay` and the golden-trace tests read (DESIGN.md §9).
const EVENT_CRATE: &str = "obs";

/// The schema enum inside [`EVENT_CRATE`], `obs::Event`.
const EVENT_ENUM: &str = "Event";

/// The metric family of a registry constructor, named by its prefix.
/// Spans are excluded: their names are a separate namespace.
fn family_of(fn_name: &str) -> Option<&'static str> {
    if !REGISTRY_FNS.contains(&fn_name) {
        return None;
    }
    ["counter", "gauge", "histogram"]
        .into_iter()
        .find(|fam| fn_name.starts_with(fam))
}

/// O2 over the workspace: dead event kinds and metric names registered
/// under more than one family.
pub fn obs_schema(ws: &Workspace, out: &mut Vec<Finding>) {
    // --- Event coverage -------------------------------------------
    // Variants: idents at brace-depth 1 of `enum Event {`,
    // skipping payload parens/braces, in files of the event crate.
    let mut variants: Vec<(String, String, usize)> = Vec::new(); // (name, file, line)
    for file in &ws.files {
        if file.crate_name.as_deref() != Some(EVENT_CRATE) {
            continue;
        }
        let toks = &file.scan.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "enum" {
                continue;
            }
            let named = toks
                .get(i + 1)
                .map(|n| n.kind == TokenKind::Ident && n.text == EVENT_ENUM)
                .unwrap_or(false);
            let opened = toks.get(i + 2).map(|o| o.text == "{").unwrap_or(false);
            if !named || !opened {
                continue;
            }
            let mut depth = 1i64; // brace depth relative to the enum body
            let mut paren = 0i64;
            let mut j = i + 3;
            let mut expect_variant = true;
            while j < toks.len() && depth > 0 {
                let v = &toks[j];
                match (v.kind, v.text.as_str()) {
                    (TokenKind::Punct, "{") => depth += 1,
                    (TokenKind::Punct, "}") => depth -= 1,
                    (TokenKind::Punct, "(") => paren += 1,
                    (TokenKind::Punct, ")") => paren -= 1,
                    (TokenKind::Punct, ",") if depth == 1 && paren == 0 => {
                        expect_variant = true;
                    }
                    (TokenKind::Ident, name) if depth == 1 && paren == 0 && expect_variant => {
                        variants.push((name.to_string(), file.rel_path.clone(), v.line));
                        expect_variant = false;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
    }

    // Emitters: `Event :: Variant` outside the event crate,
    // on non-test lines.
    let mut emitted: BTreeMap<&str, bool> = BTreeMap::new();
    for (name, _, _) in &variants {
        emitted.insert(name.as_str(), false);
    }
    for file in &ws.files {
        if file.crate_name.as_deref() == Some(EVENT_CRATE) {
            continue;
        }
        let toks = &file.scan.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != EVENT_ENUM {
                continue;
            }
            let sep = toks.get(i + 1).map(|s| s.text == "::").unwrap_or(false);
            let Some(var) = toks.get(i + 2) else { continue };
            if !sep || var.kind != TokenKind::Ident || file.in_test_code(var.line) {
                continue;
            }
            if let Some(e) = emitted.get_mut(var.text.as_str()) {
                *e = true;
            }
        }
    }
    for (name, rel_path, line) in &variants {
        if emitted.get(name.as_str()).copied().unwrap_or(true) {
            continue;
        }
        out.push(Finding {
            check: ID,
            file: rel_path.clone(),
            line: *line,
            message: format!(
                "event kind `{EVENT_ENUM}::{name}` has no emitter outside `{EVENT_CRATE}` \
                 (schema entry is dead)"
            ),
        });
    }

    // --- Metric-family consistency --------------------------------
    // name -> family -> first (file, line) registration site.
    let mut sites: BTreeMap<String, BTreeMap<&'static str, (String, usize)>> = BTreeMap::new();
    for file in &ws.files {
        let toks = &file.scan.tokens;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident {
                continue;
            }
            let Some(fam) = family_of(&t.text) else {
                continue;
            };
            // Skip the definitions themselves (`fn counter(..)`).
            if i > 0 && toks[i - 1].text == "fn" {
                continue;
            }
            let Some(open) = toks.get(i + 1) else {
                continue;
            };
            let Some(arg) = toks.get(i + 2) else { continue };
            if open.text != "(" || arg.kind != TokenKind::Str || file.in_test_code(arg.line) {
                continue;
            }
            let name = strip_quotes(&arg.text).to_string();
            sites
                .entry(name)
                .or_default()
                .entry(fam)
                .or_insert_with(|| (file.rel_path.clone(), arg.line));
        }
    }
    for (name, fams) in &sites {
        if fams.len() <= 1 {
            continue;
        }
        let mut parts: Vec<String> = fams
            .iter()
            .map(|(fam, (f, l))| format!("{fam} at {f}:{l}"))
            .collect();
        parts.sort();
        out.push(Finding {
            check: ID,
            file: String::new(),
            line: 0,
            message: format!(
                "metric name {name:?} is registered under {} families: {}",
                fams.len(),
                parts.join(", ")
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::{lib_file, workspace};

    fn ws_of(files: Vec<(&str, &str, &str)>) -> Workspace {
        workspace(
            files
                .into_iter()
                .map(|(path, krate, src)| lib_file(path, krate, src))
                .collect(),
        )
    }

    fn run(ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        obs_schema(ws, &mut out);
        out
    }

    #[test]
    fn unemitted_variant_is_flagged() {
        let ws = ws_of(vec![
            (
                "crates/obs/src/lib.rs",
                "obs",
                "pub enum Event {\n    Used(u64),\n    NeverEmitted { id: u32 },\n}\n",
            ),
            (
                "crates/app/src/lib.rs",
                "app",
                "fn go(r: &Recorder) {\n    r.emit(Event::Used(1));\n}\n",
            ),
        ]);
        let out = run(&ws);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("NeverEmitted"));
    }

    #[test]
    fn pattern_mentions_count_as_emitters() {
        let ws = ws_of(vec![
            (
                "crates/obs/src/lib.rs",
                "obs",
                "pub enum Event {\n    Tick,\n}\n",
            ),
            (
                "crates/app/src/lib.rs",
                "app",
                "fn go(e: &Event) {\n    match e {\n        Event::Tick => {}\n    }\n}\n",
            ),
        ]);
        assert!(run(&ws).is_empty());
    }

    #[test]
    fn test_only_emitters_do_not_count() {
        let ws = ws_of(vec![
            (
                "crates/obs/src/lib.rs",
                "obs",
                "pub enum Event {\n    Lonely,\n}\n",
            ),
            (
                "crates/app/src/lib.rs",
                "app",
                "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        emit(Event::Lonely);\n    }\n}\n",
            ),
        ]);
        let out = run(&ws);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn cross_family_registration_is_flagged() {
        let ws = ws_of(vec![
            (
                "crates/a/src/lib.rs",
                "a",
                "fn f(r: &Recorder) {\n    r.counter(\"hits_total\").inc();\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "fn g(r: &Recorder) {\n    r.gauge(\"hits_total\").set(1.0);\n}\n",
            ),
        ]);
        let out = run(&ws);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("hits_total"));
        assert!(out[0].message.contains("2 families"));
    }

    #[test]
    fn same_family_and_span_names_are_fine() {
        let ws = ws_of(vec![
            (
                "crates/a/src/lib.rs",
                "a",
                "fn f(r: &Recorder) {\n    r.counter(\"hits_total\").inc();\n    r.span(\"hits_total\");\n}\n",
            ),
            (
                "crates/b/src/lib.rs",
                "b",
                "fn g(r: &Recorder) {\n    r.counter_labeled(\"hits_total\", &[(\"k\", \"v\")]).inc();\n}\n",
            ),
        ]);
        assert!(run(&ws).is_empty());
    }
}
