//! **F1 — float soundness.**
//!
//! `==` / `!=` against a float literal (or an `f32::` / `f64::`
//! associated constant) is flagged everywhere — library *and* test code
//! — except comparisons against exact zero: the sparsity skip gate and
//! pruning masks *depend* on IEEE-exact `x == 0.0` semantics, which are
//! well-defined, while equality against any other literal silently
//! depends on rounding. Use the epsilon helpers
//! (`nn::metrics::approx_eq*`) instead. Comparisons against `f32::NAN` /
//! `f64::NAN` are always findings (they are always false).
//!
//! `clippy::float_cmp` is not a drop-in replacement: it also flags
//! every compare between two float variables, which this policy allows.
//! The narrowing casts on the f64-master / f32-plane boundary are a
//! clippy deny in `rram::crossbar` itself.

use crate::diag::Finding;
use crate::lexer::{Token, TokenKind};
use crate::model::SourceFile;

pub(super) const ID: &str = "F1";

/// F1 over one file: every float `==` / `!=` against a non-zero literal
/// or an `f32::` / `f64::` constant.
pub fn float_soundness(file: &SourceFile, out: &mut Vec<Finding>) {
    let toks = &file.scan.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind == TokenKind::Punct && (tok.text == "==" || tok.text == "!=") {
            if let Some(desc) = float_operand(toks, i) {
                out.push(Finding {
                    check: ID,
                    file: file.rel_path.clone(),
                    line: tok.line,
                    message: format!(
                        "float `{}` against {desc}; use an epsilon/ULP helper \
                         (exact-zero compares are exempt by policy)",
                        tok.text
                    ),
                });
            }
        }
    }
}

/// Is the literal text an exact zero (`0.0`, `0.`, `0f32`, `0e0`, …)?
fn is_zero_literal(text: &str) -> bool {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let cleaned = cleaned
        .strip_suffix("f32")
        .or_else(|| cleaned.strip_suffix("f64"))
        .unwrap_or(&cleaned);
    let cleaned = cleaned.strip_suffix('.').unwrap_or(cleaned);
    cleaned.parse::<f64>().map(|v| v == 0.0).unwrap_or(false)
}

/// If the `==`/`!=` at `op` has a float operand that the policy flags,
/// describe it; `None` means the comparison is fine.
fn float_operand(toks: &[Token], op: usize) -> Option<String> {
    // Literal on either side.
    for tok in [
        op.checked_sub(1).and_then(|i| toks.get(i)),
        toks.get(op + 1),
    ]
    .into_iter()
    .flatten()
    {
        if tok.kind == TokenKind::Float {
            // A leading unary minus does not change zeroness (-0.0 == 0.0).
            if is_zero_literal(&tok.text) {
                continue;
            }
            return Some(format!("the literal `{}`", tok.text));
        }
    }
    // `f32::CONST` / `f64::CONST` on either side.
    let before = op
        .checked_sub(3)
        .map(|base| (&toks[base], &toks[base + 1], &toks[base + 2]));
    let after = (toks.len() > op + 3).then(|| (&toks[op + 1], &toks[op + 2], &toks[op + 3]));
    for (ty, sep, konst) in [before, after].into_iter().flatten() {
        if (ty.text == "f32" || ty.text == "f64")
            && sep.text == "::"
            && konst.kind == TokenKind::Ident
        {
            return Some(format!("`{}::{}`", ty.text, konst.text));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::lib_file;

    fn run(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        float_soundness(&lib_file("crates/demo/src/lib.rs", "demo", src), &mut out);
        out
    }

    #[test]
    fn flags_nonzero_literal_equality_both_sides() {
        let out = run("fn f(x: f64) -> bool { x == 1.0 || 0.5 != x }");
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn exact_zero_compare_is_exempt() {
        let out = run("fn f(x: f64) -> bool { x == 0.0 && x != -0.0 && x == 0. && x == 0f64 }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn nan_const_compare_is_flagged() {
        let out = run("fn f(x: f32) -> bool { x == f32::NAN }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("f32::NAN"));
    }

    #[test]
    fn int_equality_and_epsilon_compares_pass() {
        let out = run("fn f(n: usize, x: f64) -> bool { n == 3 && (x - 1.0).abs() < 1e-9 }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let out = run("// x == 1.5 would be wrong\nfn f() -> &'static str { \"a == 2.5\" }");
        assert!(out.is_empty(), "{out:?}");
    }
}
