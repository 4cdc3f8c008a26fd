//! `compare`: diff a change's results set against its parent's.
//!
//! For every workload and end-to-end metric in `BENCHMARK.json` the verdict
//! compares the medians of the per-rep samples against the metric's bound:
//!
//! * *regression* — the change is worse by more than the bound;
//! * *improvement* — better by more than the bound;
//! * *unchanged* — within the bound either way;
//! * *unresolved* — the parent's own quartile spread exceeds the bound, so
//!   the samples cannot tell; except that a change whose every rep reads
//!   better than every parent rep is an improvement.
//!
//! A rise in `checks_failed` or `ops_failed_frac` fails the comparison like
//! a regression. Each workload also names the layer whose share of the
//! traced wall time moved most, when both sets carry a layer split.

use std::fmt::Write as _;
use std::path::Path;

use crate::results::{MetricSpec, Results, Spec};
use crate::stats::quartiles;

/// Verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by more than the bound.
    Regression,
    /// Better by more than the bound.
    Improvement,
    /// Within the bound.
    Unchanged,
    /// The parent's spread exceeds the bound.
    Unresolved,
}

/// Judge a change's samples against the parent's under `spec`'s bound and
/// direction. Also returns the relative change of the medians, positive
/// when the change is worse.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn verdict(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> (Verdict, f64) {
    let bound = spec.bound.unwrap_or(0.0);
    let lower = spec.better == "lower";
    let [q1, p, q3] = quartiles(parent);
    let c = quartiles(change)[1];
    let worse = if lower { (c - p) / p } else { (p - c) / p };
    let spread = (q3 - q1) / p;
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
    let v = if all_better && worse < -bound {
        Verdict::Improvement
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improvement
    } else {
        Verdict::Unchanged
    };
    (v, worse)
}

/// Compare the results sets in two directories (one `<workload>.json` per
/// workload). Returns the report and whether the change passes: no
/// regression and no rise in failed checks or operations.
///
/// # Errors
///
/// A results file is missing or unreadable.
pub fn compare(spec: &Spec, parent: &Path, change: &Path) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut pass = true;
    let _ = writeln!(
        out,
        "{:<18} {:<14} {:>12} {:>12} {:>8} {:>7}  verdict",
        "workload", "metric", "parent", "change", "worse", "bound"
    );
    for w in &spec.workloads {
        let file = format!("{}.json", w.name);
        let a = Results::load(&parent.join(&file))?;
        let b = Results::load(&change.join(&file))?;
        for m in &spec.end_to_end {
            let (Some(pa), Some(pb)) = (a.samples.get(&m.name), b.samples.get(&m.name)) else {
                return Err(format!("{}: no samples of {}", w.name, m.name));
            };
            let (v, worse) = verdict(m, pa, pb);
            pass &= v != Verdict::Regression;
            let _ = writeln!(
                out,
                "{:<18} {:<14} {:>12.6} {:>12.6} {:>+7.2}% {:>6.1}%  {v:?}",
                w.name,
                m.name,
                quartiles(pa)[1],
                quartiles(pb)[1],
                worse * 100.0,
                m.bound.unwrap_or(0.0) * 100.0
            );
        }
        for gate in ["checks_failed", "ops_failed_frac"] {
            let value = |r: &Results| r.metric(gate).map_or(f64::INFINITY, |m| m.value);
            if value(&b) > value(&a) {
                pass = false;
                let _ = writeln!(
                    out,
                    "{:<18} {gate} rose: {} → {}",
                    w.name,
                    value(&a),
                    value(&b)
                );
            }
        }
        let moved = a
            .layers
            .iter()
            .filter_map(|x| {
                let y = b.layers.iter().find(|y| y.name == x.name)?;
                Some((x.name.as_str(), x.share, y.share))
            })
            .max_by(|p, q| (p.2 - p.1).abs().total_cmp(&(q.2 - q.1).abs()));
        if let Some((name, from, to)) = moved {
            let _ = writeln!(
                out,
                "{:<18} largest layer move: {name} {:.1}% → {:.1}% of traced wall",
                w.name,
                from * 100.0,
                to * 100.0
            );
        }
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: &str) -> MetricSpec {
        MetricSpec {
            name: "wall_s".into(),
            unit: "s".into(),
            better: better.into(),
            bound: Some(0.1),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let tight = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower: Vec<f64> = tight.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = tight.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = tight.iter().map(|x| x * 1.02).collect();
        let lower = spec("lower");
        assert_eq!(verdict(&lower, &tight, &slower).0, Verdict::Regression);
        assert_eq!(verdict(&lower, &tight, &faster).0, Verdict::Improvement);
        assert_eq!(verdict(&lower, &tight, &same).0, Verdict::Unchanged);
        // for a higher-is-better metric the same move is a regression
        assert_eq!(
            verdict(&spec("higher"), &tight, &faster).0,
            Verdict::Regression
        );
        // a parent too noisy to judge by its own bound
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&lower, &noisy, &slower).0, Verdict::Unresolved);
        // unless every change rep beats every parent rep
        let far: Vec<f64> = noisy.iter().map(|x| x * 0.5).collect();
        assert_eq!(verdict(&lower, &noisy, &far).0, Verdict::Improvement);
    }
}
