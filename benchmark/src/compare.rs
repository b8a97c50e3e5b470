//! `--compare A.json B.json`: do two sets of runs agree?

use std::path::Path;

use crate::json::Json;
use crate::registry::{Better, END_TO_END};

/// Per-layer units whose values are exact for a seed and must not move.
const EXACT_UNITS: &[&str] = &["count", "cycles", "bytes", "%", "ppm", "1/kinst"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Within,
    /// B is better than A by more than the bound.
    Improved,
    /// A's own spread (IQR / median) is wider than the bound, so the
    /// comparison cannot tell.
    Unresolved,
    /// B is worse than A by more than the bound, or an exact value moved.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Differs => "differs",
        }
    }
}

/// Relative change from `a` to `b`, signed so that positive is worse.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(worsening: f64, parent_spread: Option<f64>, bound: f64) -> Verdict {
    if parent_spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Differs
    } else if worsening < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn num(m: Option<&Json>, key: &str) -> Option<f64> {
    m?.get(key)?.as_f64()
}

/// Compares two reports. Returns the lines to print and whether any
/// comparison came out `differs`.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut differs = false;
    let comparable = a.get("seed") == b.get("seed") && a.get("quick") == b.get("quick");
    if !comparable {
        lines.push(
            "the reports were taken with different seeds or scales: exact values are not compared"
                .into(),
        );
    }
    let empty: &[(String, Json)] = &[];
    let workloads = a.get("workloads").and_then(Json::as_obj).unwrap_or(empty);
    lines.push(format!(
        "{:<16} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    ));
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            lines.push(format!("{name:<16} missing from B: differs"));
            differs = true;
            continue;
        };
        for metric in END_TO_END {
            let ma = wa.get("end_to_end").and_then(|e| e.get(metric.name));
            let mb = wb.get("end_to_end").and_then(|e| e.get(metric.name));
            let (Some(va), Some(vb)) = (num(ma, "value"), num(mb, "value")) else {
                lines.push(format!("{name:<16} {:<18} missing: differs", metric.name));
                differs = true;
                continue;
            };
            let spread = match (num(ma, "q1"), num(ma, "q3")) {
                (Some(q1), Some(q3)) => Some((q3 - q1).abs() / va),
                _ => None,
            };
            let worse = worsening(va, vb, metric.better);
            let verdict = judge(worse, spread, metric.bound);
            differs |= verdict == Verdict::Differs;
            lines.push(format!(
                "{name:<16} {:<18} {va:>14.6} {vb:>14.6} {:>+7.2}% {:>5.0}%  {}",
                metric.name,
                worse * 100.0,
                metric.bound * 100.0,
                verdict.label()
            ));
        }
        if !comparable {
            continue;
        }
        // Exact values: result digest, failed operations, and every
        // per-layer count both reports hold. (Operations attempted and
        // the benchmark's own span count grow with the number of timed
        // repeats, which the clock decides; `sim.drift` is relative to
        // whatever baseline file each run found, and the digest already
        // says what it would.)
        let mut moved = Vec::new();
        for key in ["digest", "end_to_end_failed"] {
            if wa.get(key) != wb.get(key) {
                moved.push(key.to_string());
            }
        }
        let layers_a = wa.get("per_layer").and_then(Json::as_obj).unwrap_or(empty);
        for (metric, ma) in layers_a {
            let exact = ma
                .get("unit")
                .and_then(Json::as_str)
                .is_some_and(|u| EXACT_UNITS.contains(&u));
            let mb = wb.get("per_layer").and_then(|p| p.get(metric));
            if exact
                && !metric.starts_with("bench.")
                && metric != "sim.drift"
                && mb.is_some()
                && num(Some(ma), "value") != num(mb, "value")
            {
                moved.push(metric.clone());
            }
        }
        if moved.is_empty() {
            lines.push(format!("{name:<16} exact values        identical"));
        } else {
            differs = true;
            lines.push(format!(
                "{name:<16} exact values        differs: {}",
                moved.join(", ")
            ));
        }
    }
    (lines, differs)
}

/// Entry point for `--compare`; returns the process exit code.
pub fn compare_files(a: &Path, b: &Path) -> i32 {
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (lines, differs) = compare(&a, &b);
            for l in lines {
                println!("{l}");
            }
            i32::from(differs)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("sst-benchmark: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metrics_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(0.03, Some(0.01), 0.05), Verdict::Within);
        assert_eq!(judge(-0.03, None, 0.05), Verdict::Within);
        assert_eq!(judge(0.08, Some(0.01), 0.05), Verdict::Differs);
        assert_eq!(judge(-0.08, Some(0.01), 0.05), Verdict::Improved);
        // A noisy parent cannot resolve anything, in either direction.
        assert_eq!(judge(0.08, Some(0.2), 0.05), Verdict::Unresolved);
        assert_eq!(judge(0.0, Some(0.2), 0.05), Verdict::Unresolved);
    }

    fn report(value: f64, digest: &str, cycles: f64) -> Json {
        let metric = |v: f64| {
            Json::obj([
                ("value", Json::Num(v)),
                ("unit", Json::str("s")),
                ("q1", Json::Num(v * 0.995)),
                ("q3", Json::Num(v * 1.005)),
            ])
        };
        let end_to_end = Json::Obj(
            END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), metric(value)))
                .collect(),
        );
        let per_layer = Json::obj([
            (
                "sim.cycles",
                Json::obj([("value", Json::Num(cycles)), ("unit", Json::str("cycles"))]),
            ),
            (
                "isa.interp.run_minst_per_s",
                Json::obj([
                    ("value", Json::Num(value * 300.0)),
                    ("unit", Json::str("Minst/s")),
                ]),
            ),
        ]);
        let w = Json::obj([
            ("digest", Json::str(digest)),
            ("end_to_end", end_to_end),
            ("per_layer", per_layer),
        ]);
        Json::obj([
            ("seed", Json::Num(12345.0)),
            ("quick", Json::Bool(false)),
            ("workloads", Json::obj([("cmp16", w)])),
        ])
    }

    #[test]
    fn identical_reports_agree_and_a_regression_or_a_moved_count_differs() {
        let a = report(2.0, "00aa", 1000.0);
        assert!(!compare(&a, &a).1);
        // 2% higher: within every bound. Rates (non-exact units) may move.
        assert!(!compare(&a, &report(2.04, "00aa", 1000.0)).1);
        // 30% higher: beyond every bound; worse for the lower-is-better ones.
        let (lines, differs) = compare(&a, &report(2.6, "00aa", 1000.0));
        assert!(differs);
        assert!(lines
            .iter()
            .any(|l| l.contains("setup_s") && l.ends_with("differs")));
        assert!(lines
            .iter()
            .any(|l| l.contains("sim_minst_per_s") && l.ends_with("improved")));
        // Same speed, but a simulated statistic moved.
        let (lines, differs) = compare(&a, &report(2.0, "00aa", 1001.0));
        assert!(differs);
        assert!(lines.iter().any(|l| l.contains("sim.cycles")));
        assert!(compare(&a, &report(2.0, "00ab", 1000.0)).1);
    }
}
