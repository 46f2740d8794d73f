//! Field extraction from the server's canonical response lines.
//!
//! Responses are single-line JSON objects whose top-level keys are
//! unique and whose floats are printed in shortest round-trip form, so
//! a key search plus `str::parse::<f64>` recovers every value exactly.

/// The raw text after `"key":`, up to the end of the line.
fn after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pattern = format!("\"{key}\":");
    line.find(&pattern).map(|at| &line[at + pattern.len()..])
}

/// The value of a top-level string field.
pub fn string<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = after(line, key)?.strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

/// The value of a top-level number field (exact).
pub fn number(line: &str, key: &str) -> Option<f64> {
    let rest = after(line, key)?;
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The value of a top-level array-of-numbers field (exact).
pub fn numbers(line: &str, key: &str) -> Option<Vec<f64>> {
    let rest = after(line, key)?.strip_prefix('[')?;
    let body = &rest[..rest.find(']')?];
    if body.trim().is_empty() {
        return Some(Vec::new());
    }
    body.split(',').map(|x| x.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_fields_exactly() {
        let line = r#"{"type":"size","spec":0.45,"area":14215.646327204011,"sizes":[1,2.5,0.1]}"#;
        assert_eq!(string(line, "type"), Some("size"));
        assert_eq!(number(line, "area"), Some(14215.646327204011));
        assert_eq!(numbers(line, "sizes"), Some(vec![1.0, 2.5, 0.1]));
        assert_eq!(number(line, "missing"), None);
    }
}
