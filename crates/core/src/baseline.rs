//! Checked-in JSON baselines for the shape-regression suite.
//!
//! Every scenario's [`ShapeReport`] is stored under `baselines/<id>.json`
//! (blessed via `dmetabench suite --bless`).
//! Comparison semantics:
//!
//! * metrics with `tolerance: None` are informational (wall-clock numbers)
//!   and never compared,
//! * `tolerance: Some(0.0)` means **bit-identical** (`f64::to_bits`) — used
//!   for the paper's exact-match artifacts (Table 3.1, Fig. 3.4, the
//!   64/65-byte allocation boundary),
//! * `tolerance: Some(t)` means `|actual - expected| <= t * max(1, |expected|)`,
//! * shape checks must keep passing and keep the same names,
//! * for deterministic scenarios the rendered tables, notes and summary
//!   must match exactly (the strongest regression pin).

use crate::suite::{Metric, ShapeReport};
use std::path::{Path, PathBuf};

/// Environment variable overriding the baselines directory.
pub const BASELINES_ENV: &str = "DMETABENCH_BASELINES";

/// Directory holding the checked-in baselines (`baselines/` at the repo
/// root, overridable via [`BASELINES_ENV`]).
pub fn baselines_dir() -> PathBuf {
    if let Ok(dir) = std::env::var(BASELINES_ENV) {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines")
}

/// Path of one scenario's baseline file.
pub fn baseline_path(id: &str) -> PathBuf {
    baselines_dir().join(format!("{id}.json"))
}

/// Load a scenario's baseline, `Ok(None)` if it has not been blessed yet.
pub fn load(id: &str) -> Result<Option<ShapeReport>, String> {
    let path = baseline_path(id);
    if !path.exists() {
        return Ok(None);
    }
    load_from(&path).map(Some)
}

/// Load a baseline from an explicit path. Every failure names the file.
pub fn load_from(path: &Path) -> Result<ShapeReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Write (bless) a scenario's report as the new baseline.
pub fn save(report: &ShapeReport) -> Result<PathBuf, String> {
    let path = baseline_path(&report.id);
    save_to(report, &path)?;
    Ok(path)
}

/// Write a report as a baseline at an explicit path.
pub fn save_to(report: &ShapeReport, path: &Path) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    let mut text = serde_json::to_string_pretty(report)
        .map_err(|e| format!("cannot serialize report: {e:?}"))?;
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Whether `actual` is acceptable for `expected` under a relative
/// tolerance. `tolerance == 0.0` demands bit-identity.
pub fn within_tolerance(expected: f64, actual: f64, tolerance: f64) -> bool {
    if tolerance == 0.0 {
        expected.to_bits() == actual.to_bits()
    } else {
        (actual - expected).abs() <= tolerance * expected.abs().max(1.0)
    }
}

/// Result of comparing a run against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineStatus {
    /// Report matches the baseline.
    Match,
    /// No baseline file exists for this scenario.
    Missing,
    /// Report deviates; each string describes one mismatch.
    Mismatch(Vec<String>),
}

/// Compare an actual report against its blessed baseline.
pub fn compare(expected: &ShapeReport, actual: &ShapeReport) -> BaselineStatus {
    let mut mismatches = Vec::new();

    if expected.id != actual.id {
        mismatches.push(format!("id changed: '{}' → '{}'", expected.id, actual.id));
    }
    if expected.deterministic != actual.deterministic {
        mismatches.push(format!(
            "determinism flag changed: {} → {}",
            expected.deterministic, actual.deterministic
        ));
    }

    compare_metrics(expected, actual, &mut mismatches);
    compare_checks(expected, actual, &mut mismatches);

    // For pure virtual-time scenarios the human-visible output is itself a
    // deterministic function of the code: pin it verbatim.
    if expected.deterministic && actual.deterministic {
        if expected.summary != actual.summary {
            mismatches.push(format!(
                "summary changed: '{}' → '{}'",
                expected.summary, actual.summary
            ));
        }
        if expected.tables != actual.tables {
            for (e, a) in expected.tables.iter().zip(&actual.tables) {
                if e != a {
                    mismatches.push(format!("table '{}' changed", e.title));
                }
            }
            if expected.tables.len() != actual.tables.len() {
                mismatches.push(format!(
                    "table count changed: {} → {}",
                    expected.tables.len(),
                    actual.tables.len()
                ));
            }
        }
        if expected.notes != actual.notes {
            mismatches.push("notes changed".to_owned());
        }
    }

    if mismatches.is_empty() {
        BaselineStatus::Match
    } else {
        BaselineStatus::Mismatch(mismatches)
    }
}

fn compare_metrics(expected: &ShapeReport, actual: &ShapeReport, out: &mut Vec<String>) {
    for em in &expected.metrics {
        let Some(am) = actual.metric(&em.name) else {
            out.push(format!("metric '{}' disappeared", em.name));
            continue;
        };
        if em.tolerance != am.tolerance {
            out.push(format!(
                "metric '{}' tolerance changed: {:?} → {:?}",
                em.name, em.tolerance, am.tolerance
            ));
            continue;
        }
        let Some(tol) = em.tolerance else {
            continue; // informational
        };
        if !within_tolerance(em.value, am.value, tol) {
            out.push(describe_value_mismatch(em, am.value, tol));
        }
    }
    for am in &actual.metrics {
        if expected.metric(&am.name).is_none() {
            out.push(format!("metric '{}' is new (re-bless to accept)", am.name));
        }
    }
}

fn describe_value_mismatch(expected: &Metric, actual: f64, tol: f64) -> String {
    if tol == 0.0 {
        format!(
            "metric '{}' must be bit-identical: expected {:?} (bits {:#x}), got {:?} (bits {:#x})",
            expected.name,
            expected.value,
            expected.value.to_bits(),
            actual,
            actual.to_bits()
        )
    } else {
        format!(
            "metric '{}' outside ±{} band: expected {:?}, got {:?}",
            expected.name, tol, expected.value, actual
        )
    }
}

fn compare_checks(expected: &ShapeReport, actual: &ShapeReport, out: &mut Vec<String>) {
    for ec in &expected.checks {
        match actual.checks.iter().find(|c| c.name == ec.name) {
            None => out.push(format!("check '{}' disappeared", ec.name)),
            Some(ac) if !ac.passed => {
                out.push(format!("check '{}' now FAILS: {}", ec.name, ac.detail))
            }
            Some(_) => {}
        }
    }
    for ac in &actual.checks {
        if !expected.checks.iter().any(|c| c.name == ac.name) {
            if ac.passed {
                out.push(format!("check '{}' is new (re-bless to accept)", ac.name));
            } else {
                out.push(format!("new check '{}' FAILS: {}", ac.name, ac.detail));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{ExpTable, ShapeCheck};

    fn report(metrics: Vec<Metric>) -> ShapeReport {
        ShapeReport {
            id: "t".into(),
            title: "T".into(),
            paper_ref: "§0".into(),
            deterministic: true,
            summary: "s".into(),
            metrics,
            checks: vec![ShapeCheck {
                name: "holds".into(),
                passed: true,
                detail: "d".into(),
            }],
            tables: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(name: &str, value: f64, tolerance: Option<f64>) -> Metric {
        Metric {
            name: name.into(),
            value,
            tolerance,
        }
    }

    #[test]
    fn exact_tolerance_means_bit_identity() {
        // The listing-3.5 stonewall arithmetic is the golden exact value:
        // 22 191 ops/s on the paper's filer.
        let golden = 22_191.0_f64;
        assert!(within_tolerance(golden, 22_191.0, 0.0));
        assert!(!within_tolerance(golden, 22_191.0000000001, 0.0));
        assert!(!within_tolerance(golden, 22_190.0, 0.0));
        // bit-identity distinguishes signed zeros and is strict about ulps
        assert!(!within_tolerance(0.0, -0.0, 0.0));
        assert!(!within_tolerance(
            golden,
            f64::from_bits(golden.to_bits() + 1),
            0.0
        ));
    }

    #[test]
    fn tolerance_band_is_relative_with_unit_floor() {
        // 1 % of 22 191 is ±221.91
        assert!(within_tolerance(22_191.0, 22_400.0, 0.01));
        assert!(!within_tolerance(22_191.0, 22_500.0, 0.01));
        // near zero the band floors at the absolute tolerance
        assert!(within_tolerance(0.0, 0.005, 0.01));
        assert!(!within_tolerance(0.0, 0.02, 0.01));
    }

    #[test]
    fn stonewall_fig_3_4_arithmetic_survives_exact_comparison() {
        // Fig. 3.4's stonewall average is 70/3 — a non-terminating binary
        // fraction. The same expression must compare bit-equal; a reordered
        // computation that changes the last ulp must not.
        let stonewall = 70.0 / 3.0;
        assert!(within_tolerance(stonewall, 70.0 / 3.0, 0.0));
        let perturbed = f64::from_bits(stonewall.to_bits() ^ 1);
        assert!(!within_tolerance(stonewall, perturbed, 0.0));
    }

    #[test]
    fn informational_metrics_are_not_compared() {
        let expected = report(vec![metric("wall", 1.0, None)]);
        let actual = report(vec![metric("wall", 99.0, None)]);
        assert_eq!(compare(&expected, &actual), BaselineStatus::Match);
    }

    #[test]
    fn exact_metric_drift_is_a_mismatch() {
        let expected = report(vec![metric("iso_total", 12_000.0, Some(0.0))]);
        let actual = report(vec![metric("iso_total", 12_000.5, Some(0.0))]);
        match compare(&expected, &actual) {
            BaselineStatus::Mismatch(ms) => {
                assert!(ms[0].contains("bit-identical"), "{ms:?}");
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
    }

    #[test]
    fn band_metric_within_and_outside() {
        let expected = report(vec![metric("rate", 1000.0, Some(0.05))]);
        let ok = report(vec![metric("rate", 1040.0, Some(0.05))]);
        assert_eq!(compare(&expected, &ok), BaselineStatus::Match);
        let bad = report(vec![metric("rate", 1100.0, Some(0.05))]);
        assert_ne!(compare(&expected, &bad), BaselineStatus::Match);
    }

    #[test]
    fn tolerance_redefinition_is_a_mismatch() {
        let expected = report(vec![metric("rate", 1000.0, Some(0.0))]);
        let actual = report(vec![metric("rate", 1000.0, Some(0.5))]);
        assert_ne!(compare(&expected, &actual), BaselineStatus::Match);
    }

    #[test]
    fn missing_new_and_failing_entries_are_mismatches() {
        let expected = report(vec![metric("a", 1.0, Some(0.0))]);
        let mut actual = report(vec![metric("b", 1.0, Some(0.0))]);
        actual.checks[0].passed = false;
        let BaselineStatus::Mismatch(ms) = compare(&expected, &actual) else {
            panic!("expected mismatch");
        };
        assert!(ms.iter().any(|m| m.contains("'a' disappeared")), "{ms:?}");
        assert!(ms.iter().any(|m| m.contains("'b' is new")), "{ms:?}");
        assert!(ms.iter().any(|m| m.contains("now FAILS")), "{ms:?}");
    }

    #[test]
    fn deterministic_reports_pin_tables_and_notes() {
        let mut t = ExpTable::new("tab", &["a"]);
        t.row(vec!["1".into()]);
        let mut expected = report(Vec::new());
        expected.tables.push(t.clone());
        expected.notes.push("chart".into());
        let mut actual = expected.clone();
        assert_eq!(compare(&expected, &actual), BaselineStatus::Match);
        actual.tables[0].rows[0][0] = "2".into();
        assert_ne!(compare(&expected, &actual), BaselineStatus::Match);

        // …but not for wall-clock scenarios
        expected.deterministic = false;
        let mut wallclock = expected.clone();
        wallclock.tables[0].rows[0][0] = "2".into();
        wallclock.notes[0] = "other".into();
        assert_eq!(compare(&expected, &wallclock), BaselineStatus::Match);
    }

    #[test]
    fn baseline_roundtrip_preserves_float_bits() {
        let dir = std::env::temp_dir().join("dmetabench-baseline-test");
        let path = dir.join("t.json");
        let expected = report(vec![
            metric("third", 1.0 / 3.0, Some(0.0)),
            metric("stonewall", 70.0 / 3.0, Some(0.0)),
        ]);
        save_to(&expected, &path).expect("writable temp dir");
        let text = std::fs::read_to_string(&path).expect("readable");
        let back: ShapeReport = serde_json::from_str(&text).expect("parses");
        assert_eq!(compare(&expected, &back), BaselineStatus::Match);
        std::fs::remove_dir_all(&dir).ok();
    }
}
