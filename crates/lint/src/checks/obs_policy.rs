//! **O1 — obs naming policy.**
//!
//! Metric and span names registered through the `obs` API must follow
//! the `snake_case` registry grammar from DESIGN.md §9:
//! `^[a-z][a-z0-9]*(_[a-z0-9]+)*$` — lowercase words joined by single
//! underscores, starting with a letter, no leading/trailing/double
//! underscores. The check fires on every string literal passed directly
//! to a registry/recorder constructor (`counter(` / `gauge(` /
//! `histogram(` / `histogram_with_bounds(` / `counter_value(` /
//! `gauge_value(` / `histogram_handle(` / `span(`), anywhere in the
//! workspace, so a malformed name cannot reach the Prometheus renderer
//! or split a trace's metric namespace.
//!
//! For the labeled variants (`counter_labeled(` etc.) the *label keys*
//! are held to the same grammar: every first string literal of a
//! `("key", value)` pair inside the call's `&[...]` label slice is
//! validated. Label *values* are free-form and skipped.

use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::model::SourceFile;

pub(super) const ID: &str = "O1";

/// Registry and recorder constructors whose first argument is a metric
/// or span name. O2 groups the metric ones into families by their
/// `counter` / `gauge` / `histogram` prefix.
pub(super) const REGISTRY_FNS: [&str; 12] = [
    "counter",
    "counter_labeled",
    "gauge",
    "gauge_labeled",
    "histogram",
    "histogram_with_bounds",
    "counter_value",
    "counter_value_labeled",
    "gauge_value",
    "gauge_value_labeled",
    "histogram_handle",
    "span",
];

/// The inner text of a string-literal token. Raw strings as metric
/// names would themselves be a smell, but still validate by their inner
/// text.
pub(super) fn strip_quotes(raw: &str) -> &str {
    raw.trim_start_matches(['r', 'b', '#'])
        .trim_matches(['"', '#'])
}

/// Validate the registry grammar `^[a-z][a-z0-9]*(_[a-z0-9]+)*$`.
fn valid_name(name: &str) -> bool {
    if name.is_empty() || !name.starts_with(|c: char| c.is_ascii_lowercase()) {
        return false;
    }
    if name.ends_with('_') || name.contains("__") {
        return false;
    }
    name.chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// O1 over one file: every string literal passed straight to a registry
/// constructor, and every label key of a labeled one, follows the
/// registry grammar.
pub fn obs_policy(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.scan.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || !REGISTRY_FNS.contains(&tok.text.as_str()) {
            continue;
        }
        let Some(open) = toks.get(i + 1) else {
            continue;
        };
        let Some(arg) = toks.get(i + 2) else { continue };
        if open.text != "(" || arg.kind != TokenKind::Str {
            continue;
        }
        let name = strip_quotes(&arg.text);
        if !valid_name(name) {
            out.push(Finding {
                check: ID,
                file: file.rel_path.clone(),
                line: arg.line,
                message: format!(
                    "metric/span name {:?} violates the snake_case registry grammar \
                     `^[a-z][a-z0-9]*(_[a-z0-9]+)*$`",
                    name
                ),
            });
        }
        if tok.text.ends_with("_labeled") {
            check_label_keys(file, toks, i + 1, out);
        }
    }
}

/// Validate label keys of a labeled-constructor call: inside the call's
/// parens, within any `[...]` span, the first string literal of each
/// `(` group is a key and must satisfy the registry grammar. Restricting
/// to bracket spans keeps `format!`-style parenthesised strings in other
/// argument positions out of scope.
fn check_label_keys(file: &SourceFile, toks: &[Token], open: usize, out: &mut Vec<Finding>) {
    let mut paren = 0i64;
    let mut bracket = 0i64;
    for k in open..toks.len() {
        let t = &toks[k];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" => {
                paren += 1;
                if bracket > 0 {
                    // `("key", ...)` pair: key = immediate Str operand.
                    if let (Some(key), Some(comma)) = (toks.get(k + 1), toks.get(k + 2)) {
                        if key.kind == TokenKind::Str && comma.text == "," {
                            let name = strip_quotes(&key.text);
                            if !valid_name(name) {
                                out.push(Finding {
                                    check: ID,
                                    file: file.rel_path.clone(),
                                    line: key.line,
                                    message: format!(
                                        "label key {name:?} violates the snake_case registry \
                                         grammar `^[a-z][a-z0-9]*(_[a-z0-9]+)*$`"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
            ")" => {
                paren -= 1;
                if paren == 0 {
                    return;
                }
            }
            "[" => bracket += 1,
            "]" => bracket -= 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::lib_file;

    fn run(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        obs_policy(&lib_file("crates/demo/src/lib.rs", "demo", src), &mut out);
        out
    }

    #[test]
    fn grammar_accepts_and_rejects() {
        for ok in ["flow_iterations_total", "detect", "span2_ns", "a_1_b"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "Flow",
            "flow-iterations",
            "_x",
            "x_",
            "a__b",
            "1abc",
            "a.b",
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn flags_bad_names_at_call_sites() {
        let out = run(
            "fn f(r: &Recorder) {\n    r.counter(\"Bad-Name\").inc();\n    r.span(\"ok_name\");\n}",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("Bad-Name"));
    }

    #[test]
    fn non_registry_calls_and_dynamic_names_pass() {
        let out = run("fn f(r: &Recorder, n: &str) {\n    r.counter(n).inc();\n    other(\"Whatever Name\");\n}");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn bad_label_keys_are_flagged_values_are_not() {
        let out = run(
            "fn f(r: &Recorder) {\n    r.counter_labeled(\"hits_total\", &[(\"Bad-Key\", v), (\"ok_key\", \"Any Value\")]).inc();\n}",
        );
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("Bad-Key"));
        assert!(out[0].message.contains("label key"));
    }

    #[test]
    fn dynamic_label_args_outside_brackets_are_ignored() {
        let out = run(
            "fn f(r: &Recorder, labels: &Labels) {\n    r.gauge_labeled(\"depth\", labels.pairs(\"Not A Key\")).set(1.0);\n}",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_is_held_to_the_same_grammar() {
        let out = run("#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        reg.gauge(\"BAD\").set(1.0);\n    }\n}");
        assert_eq!(
            out.len(),
            1,
            "names leak into shared registries from tests too"
        );
    }
}
