//! `lint.toml` — policy configuration for the workspace lint pass.
//!
//! The linter is zero-dependency, so this module carries a minimal TOML
//! *subset* parser sufficient for its own config grammar:
//!
//! ```toml
//! [lint]
//! exclude = ["crates/shims", "crates/lint/tests/fixtures"]
//!
//! [checks.D1]
//! crates = ["rram", "nn"]
//! allow = ["crates/bench"]
//! ```
//!
//! Supported syntax: `[section]` / `[a.b]` headers, `key = "string"`,
//! `key = 123`, and `key = ["a", "b"]` arrays
//! (single-line or spanning lines), with `#` comments. Anything else is
//! a hard error — config typos must fail loudly, not silently relax a
//! policy.

use std::collections::BTreeMap;

/// A parsed configuration value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string.
    Str(String),
    /// An integer.
    Int(i64),
    /// An array of strings (the only array element type the grammar
    /// needs).
    List(Vec<String>),
}

/// Parsed config: `section -> key -> value`, with deterministic
/// (sorted) iteration because both maps are B-trees.
#[derive(Debug, Clone, Default)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Value>>,
}

/// A config-file syntax error with its 1-based line.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line where parsing failed.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl Config {
    /// Parse the supported TOML subset.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut cfg = Config::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();

        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unterminated section header: {raw:?}"),
                    });
                };
                section = name.trim().to_string();
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("expected `key = value`, got {raw:?}"),
                });
            };
            let key = line[..eq].trim().to_string();
            let mut rhs = line[eq + 1..].trim().to_string();
            // Multi-line arrays: accumulate until the brackets balance.
            while rhs.starts_with('[') && !array_closed(&rhs) {
                let Some((_, next)) = lines.next() else {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unterminated array for key {key:?}"),
                    });
                };
                rhs.push(' ');
                rhs.push_str(strip_comment(next).trim());
            }
            let value = parse_value(&rhs).map_err(|message| ConfigError {
                line: lineno,
                message,
            })?;
            cfg.sections
                .entry(section.clone())
                .or_default()
                .insert(key, value);
        }
        Ok(cfg)
    }

    /// String list at `[section] key`, or empty when absent.
    pub fn list(&self, section: &str, key: &str) -> Vec<String> {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::List(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }

    /// Integer at `[section] key`, or `default` when absent.
    pub fn int(&self, section: &str, key: &str, default: i64) -> i64 {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::Int(i)) => *i,
            _ => default,
        }
    }

    /// String at `[section] key`, or `None`.
    pub fn str(&self, section: &str, key: &str) -> Option<String> {
        match self.sections.get(section).and_then(|s| s.get(key)) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// A copy of this config with `[section] key` removed — used for
    /// shadow runs that re-check suppressed files to detect stale
    /// `allow` entries.
    pub fn without_key(&self, section: &str, key: &str) -> Config {
        let mut cfg = self.clone();
        if let Some(s) = cfg.sections.get_mut(section) {
            s.remove(key);
        }
        cfg
    }
}

/// True when every `[` in `rhs` has its matching `]` (string-aware).
fn array_closed(rhs: &str) -> bool {
    let mut depth = 0i64;
    let mut in_str = false;
    for c in rhs.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

/// Remove a `#` comment (string-aware).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(rhs: &str) -> Result<Value, String> {
    let rhs = rhs.trim();
    if let Some(body) = rhs.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(format!("unterminated array: {rhs:?}"));
        };
        let mut items = Vec::new();
        for part in split_array(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => items.push(s),
                other => return Err(format!("arrays may only hold strings, got {other:?}")),
            }
        }
        return Ok(Value::List(items));
    }
    if let Some(body) = rhs.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(format!("unterminated string: {rhs:?}"));
        };
        return Ok(Value::Str(body.replace("\\\"", "\"").replace("\\\\", "\\")));
    }
    if let Ok(i) = rhs.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    Err(format!("unsupported value syntax: {rhs:?}"))
}

/// Split an array body on commas outside strings.
fn split_array(body: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let cfg = Config::parse(
            r#"
# top comment
[lint]
exclude = ["a/b", "c"]  # trailing comment

[checks.D1]
crates = [
    "rram",
    "nn",
]
max_depth = 5
name = "x"
"#,
        )
        .expect("parses");
        assert_eq!(cfg.list("lint", "exclude"), vec!["a/b", "c"]);
        assert_eq!(cfg.list("checks.D1", "crates"), vec!["rram", "nn"]);
        assert_eq!(cfg.int("checks.D1", "max_depth", 0), 5);
        assert_eq!(cfg.str("checks.D1", "name").as_deref(), Some("x"));
        assert!(cfg.list("missing", "key").is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("[unclosed").is_err());
        assert!(Config::parse("novalue").is_err());
        assert!(Config::parse("k = [1, 2]").is_err());
        assert!(Config::parse("k = nope").is_err());
        assert!(Config::parse("k = true").is_err(), "no key takes a bool");
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = Config::parse("k = \"a#b\"").expect("parses");
        assert_eq!(cfg.str("", "k").as_deref(), Some("a#b"));
    }
}
