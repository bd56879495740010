//! Phase-1 **workspace semantic model** (DESIGN.md §10).
//!
//! Built on top of the per-file token scans from [`crate::model`], this
//! layer recovers just enough structure for cross-crate policy checks —
//! no type checking, no name resolution beyond workspace package names:
//!
//! * **Items & fn boundaries** — every `fn` with a body, its token
//!   range, enclosing `impl` type (when any), return-type idents, and
//!   whether it lives in test code.
//! * **Approximate call graph** — call sites are `ident(`-shaped token
//!   sequences (plus `ident::<…>(` turbofish); resolution is by *name*,
//!   restricted to the caller's crate and its direct intra-workspace
//!   dependencies (parsed from member manifests). Method calls match
//!   any fn of that name in the candidate crates. This over-approximates
//!   reachability — the right direction for policy checks like E2.
//! * **`par` boundary crossings** — calls to the `par` fork-join
//!   helpers with their literal closure arguments parsed out (params +
//!   body token range) for the C1 capture check.
//!
//! Known blind spots (also documented in DESIGN.md §10): macro-generated
//! code is invisible; function pointers / closures passed by name are
//! not traversed; trait dispatch resolves to every same-named method in
//! scope; `const` generic braces in signatures can confuse body
//! detection. All approximations err toward *more* edges, never fewer.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Token, TokenKind};
use crate::model::{FileRole, SourceFile, Workspace};

/// The `par` fork-join entry points whose closure arguments cross a
/// determinism boundary (C1).
pub const PAR_HELPERS: [&str; 3] = [
    "for_each_chunk_mut",
    "for_each_row_block_mut",
    "map_indices",
];

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Callee name (the ident before `(`).
    pub callee: String,
    /// Path qualifier directly before the name (`par` in `par::f(..)`,
    /// `Self`, a type name, …), if any.
    pub qualifier: Option<String>,
    /// Whether the call is `.callee(..)` (method syntax).
    pub is_method: bool,
    /// 1-based source line.
    pub line: usize,
}

/// One function definition with a body.
#[derive(Debug)]
pub struct FnInfo {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// Owning workspace package name (empty when unowned).
    pub crate_name: String,
    /// Fn name.
    pub name: String,
    /// Enclosing `impl` target type (last path segment), if any. Trait
    /// default methods record the trait name.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index range of the body, inclusive of both braces.
    pub body: (usize, usize),
    /// Idents appearing in the return type (between `->` and the body).
    pub ret_idents: Vec<String>,
    /// Whether the definition sits in `#[cfg(test)]`-scoped code.
    pub is_test: bool,
    /// Role of the containing file.
    pub role: FileRole,
    /// Call sites in the body, in source order.
    pub calls: Vec<CallRef>,
}

/// A literal closure argument at a `par` helper call site.
#[derive(Debug, Clone)]
pub struct ClosureArg {
    /// Parameter idents (pattern idents included, types too — used only
    /// as an accept-list, so over-collection is harmless).
    pub params: Vec<String>,
    /// Token index range of the closure body (exclusive of a wrapping
    /// `{`/`}` pair when present).
    pub body: (usize, usize),
    /// 1-based line of the closure's opening `|`.
    pub line: usize,
}

/// One call to a `par` fork-join helper.
#[derive(Debug)]
pub struct ParCall {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// Helper name (one of [`PAR_HELPERS`]).
    pub helper: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Whether the call sits in test-scoped code.
    pub is_test: bool,
    /// Literal closures among the arguments.
    pub closures: Vec<ClosureArg>,
}

/// The phase-1 semantic model.
#[derive(Debug)]
pub struct SemanticModel {
    /// Every fn definition found, ordered by (file, token position).
    pub fns: Vec<FnInfo>,
    /// Name → indices into `fns` (deterministic: names sorted, indices
    /// ascending).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Crate → direct intra-workspace dependencies (self included).
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// `par` helper call sites.
    pub par_calls: Vec<ParCall>,
}

const KEYWORDS: [&str; 35] = [
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "unsafe",
    "where", "use", "pub", "mod", "break", "continue", "ref", "mut", "dyn", "await", "yield",
    "struct", "enum", "union", "trait", "type", "static", "const", "crate", "super", "box",
    "let", "fn", "impl",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Map every `{` token index to its matching `}` index.
fn brace_matches(toks: &[Token]) -> BTreeMap<usize, usize> {
    let mut map = BTreeMap::new();
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "{" => stack.push(i),
            "}" => {
                if let Some(open) = stack.pop() {
                    map.insert(open, i);
                }
            }
            _ => {}
        }
    }
    map
}

/// `impl` block spans: (type name, body open idx, body close idx).
fn impl_ranges(toks: &[Token], braces: &BTreeMap<usize, usize>) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "impl" {
            continue;
        }
        // Type-position `impl Trait` (in signatures) follows `->`, `:`,
        // `(`, `,`, `<`, `=`, or `+`; block-position impl follows item
        // boundaries, attributes, or `unsafe`.
        let block_position = match i.checked_sub(1).map(|p| &toks[p]) {
            None => true,
            Some(prev) => {
                prev.kind == TokenKind::Attr
                    || matches!(prev.text.as_str(), ";" | "{" | "}")
                    || prev.text == "unsafe"
            }
        };
        if !block_position {
            continue;
        }
        // Header: idents at angle-depth 0 until `{` / `where`; the impl
        // target is the last path segment (after `for`, when present).
        let mut angle: i64 = 0;
        let mut ty: Option<String> = None;
        let mut open: Option<usize> = None;
        for (j, h) in toks.iter().enumerate().skip(i + 1) {
            match (h.kind, h.text.as_str()) {
                (TokenKind::Punct, "<") => angle += 1,
                (TokenKind::Punct, ">") => angle -= 1,
                (TokenKind::Punct, "{") if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                (TokenKind::Ident, "where") if angle <= 0 => {
                    // Type is fixed by now; keep scanning for `{`.
                }
                (TokenKind::Ident, "for") if angle <= 0 => {
                    // `impl Trait for Type` — restart: the target is the
                    // last path segment after `for`.
                    ty = None;
                }
                (TokenKind::Ident, name) if angle <= 0 => {
                    ty = Some(name.to_string());
                }
                _ => {}
            }
            if j > i + 64 {
                break; // runaway header — not an impl block we model
            }
        }
        if let (Some(open), Some(ty)) = (open, ty) {
            if let Some(&close) = braces.get(&open) {
                out.push((ty, open, close));
            }
        }
    }
    out
}

/// Innermost impl range containing token index `idx`.
fn enclosing_impl(ranges: &[(String, usize, usize)], idx: usize) -> Option<String> {
    ranges
        .iter()
        .filter(|(_, o, c)| idx > *o && idx < *c)
        .min_by_key(|(_, o, c)| c - o)
        .map(|(ty, _, _)| ty.clone())
}

/// Parse `[dependencies]` / `[dev-dependencies]` keys from a manifest,
/// filtered to workspace package names.
fn manifest_deps(manifest: &str, member_names: &BTreeSet<String>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for raw in manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_deps = matches!(line, "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]");
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some((key, _)) = line.split_once('=') {
            // `ftt-core = { .. }`, `ftt-core.workspace = true`, and
            // quoted keys all reduce to the first dotted segment.
            let key = key
                .trim()
                .split('.')
                .next()
                .unwrap_or("")
                .trim_matches('"')
                .to_string();
            if member_names.contains(&key) {
                out.insert(key);
            }
        }
    }
    out
}

/// Find the body `{` of a fn whose name sits at token `name_idx`;
/// returns `(open_idx, ret_idents)` or `None` for body-less decls.
fn fn_body_open(toks: &[Token], name_idx: usize) -> Option<(usize, Vec<String>)> {
    let mut paren: i64 = 0;
    let mut ret_idents = Vec::new();
    let mut in_ret = false;
    for (j, t) in toks.iter().enumerate().skip(name_idx + 1) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren <= 0 => return Some((j, ret_idents)),
                ";" if paren <= 0 => return None,
                "->" if paren <= 0 => in_ret = true,
                _ => {}
            }
        } else if t.kind == TokenKind::Ident {
            if t.text == "where" && paren <= 0 {
                in_ret = false;
            } else if in_ret && paren <= 0 {
                ret_idents.push(t.text.clone());
            }
        }
        if j > name_idx + 512 {
            break; // runaway signature — bail out conservatively
        }
    }
    None
}

/// Find the `)` matching the `(` at `open` (token indices).
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth: i64 = 0;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

/// Parse the literal closures among a call's argument tokens
/// (`open`/`close` are the call's paren token indices).
fn parse_closures(
    toks: &[Token],
    braces: &BTreeMap<usize, usize>,
    open: usize,
    close: usize,
) -> Vec<ClosureArg> {
    let mut out = Vec::new();
    let mut k = open + 1;
    while k < close {
        let t = &toks[k];
        let starter = k == open + 1
            || matches!(toks[k - 1].text.as_str(), "(" | "," | "move");
        if t.kind == TokenKind::Punct && (t.text == "|" || t.text == "||") && starter {
            let line = t.line;
            let mut params = Vec::new();
            let body_start = if t.text == "||" {
                k + 1
            } else {
                // Params until the closing `|`.
                let mut j = k + 1;
                while j < close && toks[j].text != "|" {
                    if toks[j].kind == TokenKind::Ident {
                        params.push(toks[j].text.clone());
                    }
                    j += 1;
                }
                j + 1
            };
            if body_start >= close {
                break;
            }
            // Body: a brace block, or an expression up to `,`/`)` at
            // relative depth 0.
            let (b0, b1, resume) = if toks[body_start].text == "{" {
                match braces.get(&body_start) {
                    Some(&end) => (body_start + 1, end, end + 1),
                    None => (body_start, close, close),
                }
            } else {
                let mut depth: i64 = 0;
                let mut end = close;
                for (j, bt) in toks.iter().enumerate().take(close).skip(body_start) {
                    if bt.kind != TokenKind::Punct {
                        continue;
                    }
                    match bt.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => {
                            end = j;
                            break;
                        }
                        _ => {}
                    }
                }
                (body_start, end, end)
            };
            out.push(ClosureArg {
                params,
                body: (b0, b1),
                line,
            });
            k = resume;
        } else {
            k += 1;
        }
    }
    out
}

impl SemanticModel {
    /// Build the semantic model for an analyzed workspace.
    pub fn build(ws: &Workspace) -> SemanticModel {
        let member_names: BTreeSet<String> =
            ws.members.iter().map(|m| m.name.clone()).collect();
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for m in &ws.members {
            let mut d = manifest_deps(&m.manifest, &member_names);
            d.insert(m.name.clone());
            deps.insert(m.name.clone(), d);
        }

        let mut fns: Vec<FnInfo> = Vec::new();
        let mut par_calls: Vec<ParCall> = Vec::new();

        for (fi, file) in ws.files.iter().enumerate() {
            let toks = &file.scan.tokens;
            let braces = brace_matches(toks);
            let impls = impl_ranges(toks, &braces);

            for (i, t) in toks.iter().enumerate() {
                if t.kind != TokenKind::Ident || t.text != "fn" {
                    continue;
                }
                let Some(name_tok) = toks.get(i + 1) else { continue };
                if name_tok.kind != TokenKind::Ident {
                    continue; // `fn(..)` pointer type
                }
                let Some((open, ret_idents)) = fn_body_open(toks, i + 1) else {
                    continue;
                };
                let Some(&bclose) = braces.get(&open) else { continue };
                let mut info = FnInfo {
                    file: fi,
                    crate_name: file.crate_name.clone().unwrap_or_default(),
                    name: name_tok.text.clone(),
                    impl_type: enclosing_impl(&impls, i),
                    line: t.line,
                    body: (open, bclose),
                    ret_idents,
                    is_test: file.in_test_code(t.line),
                    role: file.role,
                    calls: Vec::new(),
                };
                scan_body(file, toks, &braces, open, bclose, &mut info, fi, &mut par_calls);
                fns.push(info);
            }
        }

        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }

        SemanticModel {
            fns,
            by_name,
            deps,
            par_calls,
        }
    }

    /// Candidate callee fns for a call from `caller_crate`: same-named
    /// fns in that crate or its direct workspace dependencies; a path
    /// qualifier naming a crate or impl type narrows the set.
    pub fn resolve(&self, caller_crate: &str, call: &CallRef) -> Vec<usize> {
        let Some(ids) = self.by_name.get(&call.callee) else {
            return Vec::new();
        };
        let empty = BTreeSet::new();
        let dep_set = self.deps.get(caller_crate).unwrap_or(&empty);
        ids.iter()
            .copied()
            .filter(|&id| {
                let f = &self.fns[id];
                if f.is_test {
                    return false;
                }
                if !dep_set.contains(&f.crate_name) && f.crate_name != caller_crate {
                    return false;
                }
                match &call.qualifier {
                    // `par::f(..)` — qualifier naming a workspace crate
                    // pins the crate; a type qualifier pins the impl.
                    Some(q) if self.deps.contains_key(q.as_str()) => f.crate_name == *q,
                    Some(q) if q != "Self" && q != "self" => {
                        f.impl_type.as_deref() == Some(q.as_str())
                    }
                    _ => true,
                }
            })
            .collect()
    }
}

/// Scan one fn body for calls and `par` helper crossings.
#[expect(
    clippy::too_many_arguments,
    reason = "private step of `SemanticModel::build` that threads the caller's scan state; a \
              bundle struct would only wrap these borrows"
)]
fn scan_body(
    file: &SourceFile,
    toks: &[Token],
    braces: &BTreeMap<usize, usize>,
    open: usize,
    close: usize,
    info: &mut FnInfo,
    fi: usize,
    par_calls: &mut Vec<ParCall>,
) {
    let mut i = open + 1;
    while i < close {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();

        // Calls: `ident(` or `ident::<..>(`.
        if is_keyword(name) {
            i += 1;
            continue;
        }
        let mut open_paren: Option<usize> = None;
        if let Some(next) = toks.get(i + 1) {
            if next.text == "(" {
                open_paren = Some(i + 1);
            } else if next.text == "::" && toks.get(i + 2).map(|t| t.text == "<").unwrap_or(false)
            {
                // Turbofish: skip to the matching `>` then require `(`.
                let mut angle: i64 = 0;
                for (j, a) in toks.iter().enumerate().take(close).skip(i + 2) {
                    match a.text.as_str() {
                        "<" => angle += 1,
                        ">" => {
                            angle -= 1;
                            if angle == 0 {
                                if toks.get(j + 1).map(|t| t.text == "(").unwrap_or(false) {
                                    open_paren = Some(j + 1);
                                }
                                break;
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        let Some(op) = open_paren else {
            i += 1;
            continue;
        };
        let is_method = i > 0 && toks[i - 1].text == ".";
        let qualifier = if i >= 2 && toks[i - 1].text == "::" && toks[i - 2].kind == TokenKind::Ident
        {
            Some(toks[i - 2].text.clone())
        } else {
            None
        };
        info.calls.push(CallRef {
            callee: name.to_string(),
            qualifier,
            is_method,
            line: t.line,
        });

        if PAR_HELPERS.contains(&name) {
            if let Some(cp) = matching_paren(toks, op) {
                let closures = parse_closures(toks, braces, op, cp);
                par_calls.push(ParCall {
                    file: fi,
                    helper: name.to_string(),
                    line: t.line,
                    is_test: file.in_test_code(t.line),
                    closures,
                });
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn model_of(src: &str) -> (SemanticModel, Vec<String>) {
        let file = crate::testsupport::lib_file("crates/demo/src/lib.rs", "demo", src);
        let ws = Workspace {
            root: std::path::PathBuf::from("."),
            root_manifest: String::new(),
            members: vec![crate::model::Member {
                name: "demo".into(),
                dir: "crates/demo".into(),
                manifest: String::new(),
            }],
            files: vec![file],
            docs: Default::default(),
        };
        let m = SemanticModel::build(&ws);
        let names = m.fns.iter().map(|f| f.name.clone()).collect();
        (m, names)
    }

    #[test]
    fn fn_boundaries_and_impl_context() {
        let (m, names) = model_of(
            "pub struct T;\nimpl T {\n    pub fn a(&self) -> usize { self.b() }\n    fn b(&self) -> usize { 1 }\n}\nfn free() {}\n",
        );
        assert_eq!(names, vec!["a", "b", "free"]);
        assert_eq!(m.fns[0].impl_type.as_deref(), Some("T"));
        assert_eq!(m.fns[2].impl_type, None);
        assert_eq!(m.fns[0].ret_idents, vec!["usize"]);
        assert!(m.fns[0].calls.iter().any(|c| c.callee == "b" && c.is_method));
    }

    #[test]
    fn trait_decls_without_bodies_are_skipped() {
        let (_, names) = model_of("trait X {\n    fn no_body(&self);\n    fn with_body(&self) -> u8 { 0 }\n}\n");
        assert_eq!(names, vec!["with_body"]);
    }

    #[test]
    fn calls_resolve_within_crate() {
        let (m, _) = model_of("fn a() { b(); }\nfn b() {}\n");
        let call = &m.fns[0].calls[0];
        let ids = m.resolve("demo", call);
        assert_eq!(ids.len(), 1);
        assert_eq!(m.fns[ids[0]].name, "b");
    }

    #[test]
    fn par_call_closures_are_parsed() {
        let (m, _) = model_of(
            "fn k(n: usize) -> Vec<usize> {\n    par::map_indices(n, 1, |i| i * 2)\n}\n",
        );
        assert_eq!(m.par_calls.len(), 1);
        assert_eq!(m.par_calls[0].helper, "map_indices");
        assert_eq!(m.par_calls[0].closures.len(), 1);
        assert_eq!(m.par_calls[0].closures[0].params, vec!["i"]);
    }

    #[test]
    fn empty_param_closures_and_multiple_args() {
        let (m, _) = model_of(
            "fn k(d: &mut [u64]) {\n    for_each_chunk_mut(d, 1, || 0u64, |start, chunk| chunk[0] += start as u64)\n}\n",
        );
        assert_eq!(m.par_calls.len(), 1);
        assert_eq!(m.par_calls[0].closures.len(), 2);
        assert!(m.par_calls[0].closures[0].params.is_empty());
        assert_eq!(m.par_calls[0].closures[1].params, vec!["start", "chunk"]);
    }
}
