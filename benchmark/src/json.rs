//! The result line: one JSON object, written by hand (the repo has no
//! serde), holding exactly the metrics of one table with their units.

use crate::names::MetricDef;

/// A metric name the driver accepts: starts with a letter or digit, at
/// most 64 letters, digits, `_`, `.` and `-`.
pub fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

/// A unit the driver accepts: 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

/// The result line for `table`: `values` must hold every metric of the
/// table exactly once and nothing else, each a finite number. Values are
/// printed with all their digits (Rust's shortest round-trip form).
pub fn result_line(
    table: &[MetricDef],
    values: &[(&str, f64)],
    attempted: usize,
    failed: usize,
) -> Result<String, String> {
    for (name, _) in values {
        if !table.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} is not in the table"));
        }
    }
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (k, def) in table.iter().enumerate() {
        if !is_name(def.name) || !is_unit(def.unit) {
            return Err(format!("bad name or unit: {} [{}]", def.name, def.unit));
        }
        let mut found = values.iter().filter(|(n, _)| *n == def.name);
        let (Some(&(_, v)), None) = (found.next(), found.next()) else {
            return Err(format!("metric {} must be reported exactly once", def.name));
        };
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", def.name));
        }
        let sep = if k == 0 { "" } else { ", " };
        out.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{END_TO_END, PER_LAYER};

    #[test]
    fn names_and_units_are_driver_legal() {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(def.name), "bad name {}", def.name);
            assert!(is_unit(def.unit), "bad unit {} of {}", def.unit, def.name);
        }
        assert!(!is_name(""));
        assert!(!is_name(".leading-dot"));
        assert!(!is_name("has space"));
        assert!(!is_name("slash/inside"));
        assert!(!is_name(&"x".repeat(65)));
        assert!(is_unit("count/rep") && !is_unit("") && !is_unit("seventeen-chars-xx"));
    }

    #[test]
    fn writer_emits_the_table_and_nothing_else() {
        let table = &END_TO_END[..2];
        let line =
            result_line(table, &[("peak_rss_mb", 45.25), ("setup_s", 0.0123)], 7, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.0123, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 45.25, \"unit\": \"MB\"}}}"
        );
        // Every quoted token of the metrics object is a legal name, a
        // legal unit, or one of the two fixed keys.
        let metrics = &line[line.find("\"metrics\"").unwrap() + 9..];
        for token in metrics.split('"').skip(1).step_by(2) {
            assert!(is_name(token) || is_unit(token), "illegal token {token}");
        }
        assert!(result_line(table, &[("setup_s", 1.0)], 1, 0).is_err(), "missing metric");
        let twice = [("setup_s", 1.0), ("setup_s", 2.0), ("peak_rss_mb", 1.0)];
        assert!(result_line(table, &twice, 1, 0).is_err(), "duplicate metric");
        let extra = [("setup_s", 1.0), ("peak_rss_mb", 1.0), ("err_l1", 1.0)];
        assert!(result_line(table, &extra, 1, 0).is_err(), "unlisted metric");
        let nan = [("setup_s", f64::NAN), ("peak_rss_mb", 1.0)];
        assert!(result_line(table, &nan, 1, 0).is_err(), "NaN");
        let failed = result_line(table, &[("peak_rss_mb", 1.0), ("setup_s", 1.0)], 3, 1).unwrap();
        assert!(failed.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
    }
}
