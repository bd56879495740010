//! Minimal JSON serialization helpers (zero-dependency).
//!
//! The workspace is offline (no `serde_json`), so `obs` carries the tiny
//! subset it needs: an append-only object writer with correct string
//! escaping and shortest-round-trip float formatting, plus the field
//! extractors the round-trip tests and the demo verifier use.
//!
//! Numbers are written with `{}` ([`std::fmt::Display`]), which for `f64`
//! is Rust's shortest representation that parses back to the same bits —
//! exactly what a telemetry trace wants (no 4-decimal truncation).

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An append-only JSON object writer. Fields appear in insertion order;
/// keys are assumed to be plain identifiers (no escaping needed).
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a float field (shortest round-trip representation; non-finite
    /// values become `null` — JSON has no NaN/∞).
    pub fn field_f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a string field.
    pub fn field_str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        write_escaped(&mut self.buf, value);
        self
    }

    /// Adds a boolean field.
    pub fn field_bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Finds the raw (unparsed) value of `key` in a single-line JSON object.
/// Returns the substring between `"key":` and the next `,` or `}` at
/// nesting depth zero. Only suitable for the flat objects `obs` writes.
fn raw_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    // Scan to the matching delimiter, skipping over string values.
    let mut in_string = false;
    let mut escaped = false;
    for (i, ch) in rest.char_indices() {
        if in_string {
            match ch {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match ch {
            '"' => in_string = true,
            ',' | '}' => return Some(rest[..i].trim()),
            _ => {}
        }
    }
    None
}

/// Extracts an unsigned integer field from a flat JSON object line.
pub fn extract_u64(line: &str, key: &str) -> Option<u64> {
    raw_value(line, key)?.parse().ok()
}

/// Extracts a float field from a flat JSON object line (`null` → `None`).
pub fn extract_f64(line: &str, key: &str) -> Option<f64> {
    let raw = raw_value(line, key)?;
    if raw == "null" {
        return None;
    }
    raw.parse().ok()
}

/// Extracts a string field from a flat JSON object line. Handles the
/// escapes [`write_escaped`] produces.
pub fn extract_str(line: &str, key: &str) -> Option<String> {
    let raw = raw_value(line, key)?;
    let inner = raw.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(ch) = chars.next() {
        if ch != '\\' {
            out.push(ch);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            other => out.push(other),
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_writes_fields_in_order() {
        let json = JsonObject::new()
            .field_u64("a", 7)
            .field_f64("b", 0.1)
            .field_str("c", "x\"y")
            .field_bool("d", true)
            .finish();
        assert_eq!(json, r#"{"a":7,"b":0.1,"c":"x\"y","d":true}"#);
    }

    #[test]
    fn floats_round_trip_at_full_precision() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -0.0,
            123456.789012345,
        ] {
            let json = JsonObject::new().field_f64("v", v).finish();
            let back = extract_f64(&json, "v").expect("field present");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} must round-trip exactly");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let json = JsonObject::new().field_f64("v", v).finish();
            assert!(json.contains("null"));
            assert_eq!(extract_f64(&json, "v"), None);
        }
    }

    #[test]
    fn extractors_skip_string_commas() {
        let json = JsonObject::new()
            .field_str("name", "a,b}c")
            .field_u64("n", 42)
            .finish();
        assert_eq!(extract_str(&json, "name").as_deref(), Some("a,b}c"));
        assert_eq!(extract_u64(&json, "n"), Some(42));
        assert_eq!(extract_u64(&json, "missing"), None);
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "line\nbreak\ttab \\slash \"quote\" \u{1} unicode \u{1F600}";
        let json = JsonObject::new().field_str("s", nasty).finish();
        assert_eq!(extract_str(&json, "s").as_deref(), Some(nasty));
    }
}
