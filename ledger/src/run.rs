//! One workload run, as the benchmark contract defines it: set up from
//! the seed, measure for `--seconds`, check every output, report.
//! [`end_to_end`] is the untraced run behind the gated metrics; the
//! traced counterpart is in `trace.rs`.

use std::time::Instant;

use crate::catalog::{MetricDef, Workload, END_TO_END};
use crate::inputs::{Inputs, Scale, Session};
use crate::json::quote;
use crate::stats;
use crate::sys;
use crate::workloads::{driver, run_tier, Ctx, SliceStat, Stretch};

/// Set-ups per untraced run; `setup_s` is the fastest. Whatever
/// disturbs a set-up on a shared host only ever adds time, so the
/// minimum repeats where the median of three did not (README, "Why
/// stretches").
const SETUP_REPS: usize = 3;

/// Slices every run measures at least, however short `--seconds` is.
pub const MIN_SLICES: usize = 3;

/// The share of a run's stretches, counted from the best, whose edge a
/// rate or a time is read at (see [`best_stretches`]).
const BEST_SHARE: f64 = 0.05;

/// What the command line asks of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Each metric with its value, in catalogue order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Facts about the host and the run that are not metrics.
    pub labels: Vec<(&'static str, String)>,
    pub failures: Vec<String>,
    /// The traced run's spans, for `main` to write out.
    pub spans_json: Option<String>,
}

impl Outcome {
    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. Values keep all their digits.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(def, value)| {
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(def.name),
                    quote(def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn labels_json(&self) -> String {
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        format!("{{{}}}", labels.join(", "))
    }

    /// Every metric by name with its unit, then the result line last.
    pub fn print(&self) {
        let (op, timed) = self.workload.op();
        println!("workload {}: {}", self.workload.name(), self.workload.why());
        println!("  seed {}; op = {op}; timed unit = {timed}", self.seed);
        println!("  labels {}", self.labels_json());
        for (def, value) in &self.metrics {
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "  {:<44} {value:>16.4} {:<6} ({better} is better)",
                def.name, def.unit
            );
        }
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        println!("{}", self.result_json());
    }
}

/// Builds the metric list in catalogue order from computed values;
/// a value the run did not compute is an error for an end-to-end
/// metric and 0 (layer bypassed) for a per-layer one.
pub fn in_catalogue_order(
    defs: &'static [MetricDef],
    values: &[(&'static str, f64)],
    must_be_present: bool,
) -> Result<Vec<(&'static MetricDef, f64)>, String> {
    for (name, v) in values {
        if !defs.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} is not in the catalogue"));
        }
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number: {v}"));
        }
    }
    defs.iter()
        .map(|d| match values.iter().find(|(n, _)| *n == d.name) {
            Some((_, v)) => Ok((d, *v)),
            None if must_be_present => Err(format!("metric {} was not measured", d.name)),
            None => Ok((d, 0.0)),
        })
        .collect()
}

/// Host facts every run records (read before pinning narrows what
/// `available_parallelism` sees).
pub fn host_labels(scale: Scale, inputs: Option<&Inputs>) -> Vec<(&'static str, String)> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        (
            "scale",
            if scale.smoke {
                "smoke (not comparable)"
            } else {
                "full"
            }
            .to_string(),
        ),
        ("host_cpus", cpus.to_string()),
        ("kernel", sys::kernel_release()),
        (
            "crypto.batch_kernel",
            inputs.map_or("unused", |i| i.batch_kernel()).to_string(),
        ),
    ]
}

/// Everything that happens before the first timed operation and
/// depends on the seed: key generation, pool signing, and one server
/// bring-up with every relationship registered — or, for the twin,
/// one warm-up run. Work a later change moves out of the timed
/// windows lands here and shows in `setup_s`.
pub fn set_up(spec: RunSpec) -> Result<Option<Inputs>, String> {
    let RunSpec {
        workload: w,
        seed,
        scale,
        ..
    } = spec;
    if w == Workload::TwinChurn {
        let (report, _) = run_tier(scale.twin_sessions, seed);
        if report.events_fired == 0 {
            return Err("twin warm-up fired no events".to_string());
        }
        return Ok(None);
    }
    let inputs = Inputs::build(seed, scale.pocs_per_rel)?;
    Session::open(&inputs)?.close()?;
    Ok(Some(inputs))
}

/// Pins the process if the workload asks for it; the label says where.
pub fn pin_if_needed(w: Workload) -> Result<String, String> {
    if w.pinned() {
        sys::pin_to_one_cpu().map(|cpu| cpu.to_string())
    } else {
        Ok("unpinned".to_string())
    }
}

/// Runs slices of `spec.workload` until `seconds` of wall time have
/// passed (and at least `min_slices`); `before_slice` lets the traced
/// run switch the tracer per slice.
pub fn measure(
    spec: RunSpec,
    inputs: Option<&Inputs>,
    seconds: f64,
    min_slices: usize,
    cx: &mut Ctx,
    mut before_slice: impl FnMut(&mut Ctx, usize),
) -> Result<Vec<SliceStat>, String> {
    let mut drv = driver(spec.workload, inputs, spec.scale, spec.seed)?;
    let start = Instant::now();
    let mut slices = Vec::new();
    while slices.len() < min_slices || start.elapsed().as_secs_f64() < seconds {
        before_slice(cx, slices.len());
        slices.push(drv.slice(cx)?);
    }
    drv.finish(cx)?;
    Ok(slices)
}

/// `f` at the edge of the best twentieth of the stretches: the 95th
/// percentile of a rate, the 5th of a time. The host only ever slows
/// the guest, by a third or a half and for milliseconds to tens of
/// seconds at a time, so the median stretch of a run says which state
/// the host was in, and the best stretches say what the program
/// costs: over 24 runs in a noisy hour the p50 of the median
/// `settle_rpc` stretch spread 29 % between runs and of this one 2.8 %
/// (README, "Why stretches"). Not the very best stretch: one stray
/// sample moves that.
pub fn best_stretches(
    stretches: &[Stretch],
    higher_is_better: bool,
    f: impl Fn(&Stretch) -> f64,
) -> f64 {
    let p = if higher_is_better {
        1.0 - BEST_SHARE
    } else {
        BEST_SHARE
    };
    stats::percentile(&stretches.iter().map(f).collect::<Vec<_>>(), p)
}

/// The untraced run: the gated end-to-end metrics.
pub fn end_to_end(spec: RunSpec) -> Result<Outcome, String> {
    let mut setup_s = f64::INFINITY;
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // One pool at a time, so `peak_rss_mb` holds one.
        drop(inputs.take());
        let t = Instant::now();
        inputs = set_up(spec)?;
        setup_s = setup_s.min(t.elapsed().as_secs_f64());
    }
    let mut labels = host_labels(spec.scale, inputs.as_ref());
    labels.push(("pinned_cpu", pin_if_needed(spec.workload)?));

    let mut cx = Ctx::new(false);
    let slices = measure(
        spec,
        inputs.as_ref(),
        spec.seconds,
        MIN_SLICES,
        &mut cx,
        |_, _| {},
    )?;

    let values = [
        ("setup_s", setup_s),
        (
            "ops_per_s",
            best_stretches(&cx.stretches, true, |s| s.ops as f64 / s.wall_s),
        ),
        (
            "op_us_p50",
            best_stretches(&cx.stretches, false, |s| s.p50_us),
        ),
        ("peak_rss_mb", sys::peak_rss_mb()?),
    ];
    labels.push(("slices", slices.len().to_string()));
    labels.push(("stretches", cx.stretches.len().to_string()));
    Ok(Outcome {
        workload: spec.workload,
        seed: spec.seed,
        correct: cx.failed == 0,
        attempted: cx.attempted,
        failed: cx.failed,
        metrics: in_catalogue_order(END_TO_END, &values, true)?,
        labels,
        failures: cx.failures,
        spans_json: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::PER_LAYER;

    #[test]
    fn catalogue_order_and_defaults() {
        let got = in_catalogue_order(
            END_TO_END,
            &[
                ("peak_rss_mb", 6.0),
                ("setup_s", 1.0),
                ("ops_per_s", 2.0),
                ("op_us_p50", 3.0),
            ],
            true,
        )
        .expect("complete");
        let names: Vec<_> = got.iter().map(|m| m.0.name).collect();
        let want: Vec<_> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        assert_eq!(
            (got[0].0.name, got[0].1, got[0].0.unit),
            ("setup_s", 1.0, "s")
        );

        assert!(in_catalogue_order(END_TO_END, &[("setup_s", 1.0)], true).is_err());
        assert!(in_catalogue_order(END_TO_END, &[("nope", 1.0)], false).is_err());
        assert!(in_catalogue_order(END_TO_END, &[("setup_s", f64::NAN)], false).is_err());
        let layers = in_catalogue_order(PER_LAYER, &[("proc.threads", 4.0)], false).expect("ok");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers
            .iter()
            .all(|m| m.1 == if m.0.name == "proc.threads" { 4.0 } else { 0.0 }));
    }

    #[test]
    fn best_stretches_reads_the_edge_of_the_best_twentieth() {
        // 21 stretches of 100 ops taking 1..=21 s with p50 1..=21 us:
        // rank 0.05 * 20 = 1 from the better end.
        let stretches: Vec<Stretch> = (1..=21)
            .map(|k| Stretch {
                ops: 100,
                wall_s: f64::from(k),
                p50_us: f64::from(k),
            })
            .collect();
        let rate = best_stretches(&stretches, true, |s| s.ops as f64 / s.wall_s);
        assert_eq!(rate, 50.0);
        assert_eq!(best_stretches(&stretches, false, |s| s.p50_us), 2.0);
        // One stretch is its own best.
        assert_eq!(best_stretches(&stretches[4..5], false, |s| s.p50_us), 5.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            workload: Workload::SettleRpc,
            seed: 1,
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![(&END_TO_END[0], 0.8127), (&END_TO_END[1], 1234.5)],
            labels: vec![("kernel", "6.18 \"x\"".to_string())],
            failures: vec![],
            spans_json: None,
        };
        let v = crate::json::Json::parse(&o.result_json()).expect("valid JSON");
        let keys: Vec<_> = v.as_obj().expect("object").keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(m.get("value").and_then(|x| x.as_f64()), Some(0.8127));
        assert_eq!(m.get("unit").and_then(|x| x.as_str()), Some("s"));
        assert!(crate::json::Json::parse(&o.labels_json()).is_ok());
    }
}
