//! `ledger check <runA.json> <runB.json>`: do two run sets agree within
//! the bounds `BENCHMARK.json` fixes? One row per (metric, workload)
//! with both values, the ratio and its base; a pair that disagrees
//! beyond its bound in either direction — or a differing failure count
//! — makes the exit code non-zero.
//!
//! Either side may be several run files joined by commas; its value is
//! then the median over them. On a host whose speed changes from one
//! minute to the next, a single run per side measures the host.

use std::path::Path;

use crate::catalog::Workload;
use crate::json::Json;
use crate::stats;

/// One end-to-end metric's gate, as `BENCHMARK.json` declares it.
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` list of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            let better = text("better").ok_or("end_to_end metric without better")?;
            Ok(Bound {
                name: text("name").ok_or("end_to_end metric without name")?,
                unit: text("unit").ok_or("end_to_end metric without unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better is {other:?}, not higher or lower")),
                },
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .filter(|b| *b > 0.0)
                    .ok_or("end_to_end metric without a positive bound")?,
            })
        })
        .collect()
}

/// How B compares with A on one metric.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Agree,
    /// B is worse than A by more than the bound.
    Worse,
    /// B is better than A by more than the bound: the two runs still
    /// disagree, which for one commit means the metric does not repeat.
    Better,
}

/// Compares `b` against base `a`. "Worse by more than the bound" is
/// measured as the contract does, as a share of the base.
pub fn compare(a: f64, b: f64, bound: &Bound) -> Verdict {
    if !(a > 0.0 && b > 0.0) {
        return Verdict::Worse;
    }
    let change = b / a - 1.0;
    let worsening = if bound.higher_is_better {
        -change
    } else {
        change
    };
    if worsening > bound.bound {
        Verdict::Worse
    } else if -worsening > bound.bound {
        Verdict::Better
    } else {
        Verdict::Agree
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One side of the comparison: the run files named by `paths`, joined
/// by commas.
fn load_side(paths: &str) -> Result<Vec<Json>, String> {
    paths.split(',').map(load).collect()
}

/// Median of a metric over one side's runs; `None` if any lacks it.
fn metric(runs: &[Json], workload: &str, name: &str) -> Option<f64> {
    let value = |run: &Json| {
        run.get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    let values: Option<Vec<f64>> = runs.iter().map(value).collect();
    values.map(|v| stats::median(&v))
}

/// Sum of a count (`failed`, `attempted`) over one side's runs.
fn count(runs: &[Json], workload: &str, key: &str) -> Option<f64> {
    let value = |run: &Json| run.get("workloads")?.get(workload)?.get(key)?.as_f64();
    runs.iter().map(value).sum()
}

/// Prints the comparison table; `Ok(true)` when every pair agrees.
pub fn check(path_a: &str, path_b: &str) -> Result<bool, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let benchmark = load(&manifest.to_string_lossy())?;
    let bounds = bounds(&benchmark)?;
    let (a, b) = (load_side(path_a)?, load_side(path_b)?);

    println!("A = {path_a}\nB = {path_b}");
    if a.len() > 1 || b.len() > 1 {
        println!("medians of {} and {} run sets", a.len(), b.len());
    }
    println!(
        "{:<14} {:<14} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut agree = true;
    for w in Workload::ALL.map(Workload::name) {
        for bound in &bounds {
            let (Some(va), Some(vb)) = (metric(&a, w, &bound.name), metric(&b, w, &bound.name))
            else {
                println!("{w:<14} {:<14} missing from one of the runs", bound.name);
                agree = false;
                continue;
            };
            let verdict = compare(va, vb, bound);
            agree &= verdict == Verdict::Agree;
            println!(
                "{w:<14} {:<14} {va:>16.4} {vb:>16.4} {:>9.4} {:>6.0}%  {} [{}]",
                bound.name,
                vb / va,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Agree => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Better => "BETTER",
                },
                bound.unit,
            );
        }
        // failed_share: any difference between the runs disagrees.
        let share = |runs: &[Json]| Some((count(runs, w, "failed")?, count(runs, w, "attempted")?));
        match (share(&a), share(&b)) {
            (Some((fa, na)), Some((fb, nb))) => {
                let same = fa * nb == fb * na;
                agree &= same;
                println!(
                    "{w:<14} {:<14} {:>16} {:>16} {:>9} {:>7}  {}",
                    "failed_share",
                    format!("{fa}/{na}"),
                    format!("{fb}/{nb}"),
                    "",
                    "0",
                    if same { "ok" } else { "FAILURES" },
                );
            }
            _ => {
                println!("{w:<14} failed_share   missing from one of the runs");
                agree = false;
            }
        }
    }
    println!(
        "{}",
        if agree {
            "check: runs agree"
        } else {
            "check: runs DISAGREE"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher: bool, b: f64) -> Bound {
        Bound {
            name: "x".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: b,
        }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        let lower = bound(false, 0.05);
        assert_eq!(compare(100.0, 104.0, &lower), Verdict::Agree);
        assert_eq!(compare(100.0, 106.0, &lower), Verdict::Worse);
        assert_eq!(compare(100.0, 94.0, &lower), Verdict::Better);
        let higher = bound(true, 0.05);
        assert_eq!(compare(100.0, 96.0, &higher), Verdict::Agree);
        assert_eq!(compare(100.0, 94.0, &higher), Verdict::Worse);
        assert_eq!(compare(100.0, 106.0, &higher), Verdict::Better);
        // A zero or missing reading never passes.
        assert_eq!(compare(0.0, 1.0, &lower), Verdict::Worse);
        assert_eq!(compare(1.0, f64::NAN, &lower), Verdict::Worse);
    }

    #[test]
    fn a_side_of_several_runs_reads_as_their_median() {
        let run = |value: f64, failed: u64| {
            let doc = format!(
                r#"{{"workloads": {{"w": {{"failed": {failed}, "attempted": 10,
                    "metrics": {{"x": {{"value": {value}, "unit": "u"}}}}}}}}}}"#
            );
            Json::parse(&doc).expect("valid run file")
        };
        let side = [run(1.0, 0), run(9.0, 1), run(2.0, 0)];
        assert_eq!(metric(&side, "w", "x"), Some(2.0));
        assert_eq!(metric(&side[..1], "w", "x"), Some(1.0));
        assert_eq!(count(&side, "w", "failed"), Some(1.0));
        assert_eq!(count(&side, "w", "attempted"), Some(30.0));
        assert_eq!(metric(&side, "w", "missing"), None);
        assert_eq!(count(&side, "nope", "failed"), None);
    }

    #[test]
    fn bounds_parse_and_reject() {
        let ok = Json::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let b = bounds(&ok).expect("parses");
        assert_eq!(b.len(), 1);
        assert!(b[0].higher_is_better && b[0].bound == 0.1 && b[0].unit == "1/s");
        for bad in [
            r#"{}"#,
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "sideways", "bound": 0.1}]}"#,
            r#"{"end_to_end": [{"name": "x", "unit": "s", "better": "lower", "bound": 0}]}"#,
            r#"{"end_to_end": [{"unit": "s", "better": "lower", "bound": 0.1}]}"#,
        ] {
            assert!(
                bounds(&Json::parse(bad).unwrap()).is_err(),
                "accepted {bad}"
            );
        }
    }
}
