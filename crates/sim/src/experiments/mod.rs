//! One module per table/figure of the paper's evaluation (§7), and the
//! one table that names them ([`EXPERIMENTS`]).
//!
//! Each experiment exposes a function returning serializable rows
//! matching the paper's reported series — `run(scale)` where it
//! simulates for itself, `from_samples(sweep)` where it reads the shared
//! congestion sweep — plus a formatter that prints them in the paper's
//! shape. `RunScale` trades fidelity for time: `Full` matches the paper
//! (1-hour cycles, full sweeps); `Quick` shrinks cycles for CI.
//!
//! `tlc eval` walks the table, `tlc experiment <name>` looks one row
//! up, and the usage text is printed from it: an experiment is named
//! here and nowhere else.

use crate::scenario::ALL_APPS;
use std::cell::OnceCell;
use sweep::SweepSample;
use tlc_net::time::SimDuration;

pub mod ablation;
pub mod dataset;
pub mod devices;
pub mod fig03;
pub mod fig04;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod generic;
pub mod mobility;
pub mod roaming;
pub mod robustness;
pub mod strawman;
pub mod sweep;
pub mod table2;
pub mod twin;

/// How big to run an experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunScale {
    /// CI/bench scale: short cycles, few repetitions.
    Quick,
    /// Paper scale: 1-hour cycles, full sweeps.
    Full,
}

impl RunScale {
    /// The charging-cycle length for this scale.
    pub fn cycle(&self) -> SimDuration {
        match self {
            RunScale::Quick => SimDuration::from_secs(60),
            RunScale::Full => SimDuration::from_secs(3600),
        }
    }

    /// Number of repeated rounds (seeds) per configuration.
    pub fn rounds(&self) -> u64 {
        match self {
            RunScale::Quick => 3,
            RunScale::Full => 20,
        }
    }
}

/// What a row of [`EXPERIMENTS`] runs over: the scale, and the
/// congestion sweep that Fig. 11c, 12, 13, 15, 16b and Table 2 all read
/// — simulated on first request and kept, so walking the whole table
/// pays for it once.
pub struct RunContext {
    /// How big to run.
    pub scale: RunScale,
    sweep: OnceCell<Vec<SweepSample>>,
}

impl RunContext {
    /// A context at `scale`; nothing is simulated yet.
    pub fn new(scale: RunScale) -> Self {
        RunContext {
            scale,
            sweep: OnceCell::new(),
        }
    }

    /// The shared congestion sweep: every application at every
    /// background level of the scale.
    pub fn sweep(&self) -> &[SweepSample] {
        let levels = sweep::background_levels(self.scale);
        self.sweep
            .get_or_init(|| sweep::sweep_over(self.scale, &ALL_APPS, levels))
    }
}

/// One row of [`EXPERIMENTS`].
pub struct Experiment {
    /// The name `tlc experiment` takes.
    pub name: &'static str,
    /// What it regenerates, as the paper numbers it.
    pub label: &'static str,
    /// Runs it and prints its rows in the paper's shape.
    pub run: fn(&RunContext) -> Result<(), Box<dyn std::error::Error>>,
}

/// Looks a row up by its name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

macro_rules! table {
    ($($name:literal, $label:literal, |$cx:ident| $body:expr;)*) => {
        &[$(Experiment {
            name: $name,
            label: $label,
            run: |$cx| {
                $body;
                Ok(())
            },
        }),*]
    };
}

/// Every experiment, in the order `tlc eval` prints them (the paper's,
/// then the extensions).
pub static EXPERIMENTS: &[Experiment] = table! {
    "fig03", "Fig. 3", |cx| fig03::print(&fig03::run(cx.scale));
    "fig04", "Fig. 4", |cx| {
        let (rows, summary) = fig04::run(cx.scale);
        fig04::print(&rows, &summary)
    };
    "dataset", "Fig. 11c", |cx| dataset::print(&dataset::from_samples(cx.sweep()));
    "fig12", "Fig. 12", |cx| fig12::print(&mut fig12::from_samples(cx.sweep()));
    "table2", "Table 2", |cx| table2::print(&table2::from_samples(cx.sweep()));
    "fig13", "Fig. 13", |cx| fig13::print(&fig13::from_samples(cx.sweep()));
    "fig14", "Fig. 14", |cx| fig14::print(&fig14::run(cx.scale));
    "fig15", "Fig. 15", |cx| fig15::print(&mut fig15::from_samples(cx.sweep()));
    "fig16", "Fig. 16", |cx| fig16::print(
        &fig16::run_rtt(cx.scale),
        &fig16::rounds_from_samples(cx.sweep())
    );
    "fig17", "Fig. 17", |cx| fig17::print(&fig17::run(fig17::reps(cx.scale))?);
    "fig18", "Fig. 18", |cx| fig18::print(&mut fig18::run(cx.scale));
    "generic", "App. D", |cx| generic::print(&generic::run(cx.scale));
    "ablation", "ablation: scheduler discipline", |cx| ablation::print(&ablation::run(cx.scale));
    "mobility", "extension: handover gap", |cx| mobility::print(&mobility::run(cx.scale));
    "strawman", "§5.4 monitor strawmen", |cx| strawman::print(&strawman::run(cx.scale));
    "robustness", "extension: lossy control plane", |cx| robustness::print(&robustness::run(cx.scale));
    "twin", "extension: digital twin", |cx| twin::print(&twin::run(cx.scale));
    "roaming", "extension: roaming settlement", |cx| roaming::print(&roaming::run(cx.scale));
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_every_one_resolves() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            let first = EXPERIMENTS.iter().position(|x| x.name == e.name);
            assert_eq!(first, Some(i), "`{}` names two rows", e.name);
            assert_eq!(find(e.name).map(|x| x.label), Some(e.label));
        }
        assert!(find("nosuch").is_none());
    }
}
