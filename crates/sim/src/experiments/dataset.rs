//! Fig. 11c — the experimental dataset table.
//!
//! The paper reports, per application family, the number of charging data
//! records collected (the testbed logs usage at 1 Hz) and the total
//! charged data volume. This experiment derives the same table from a
//! sweep's simulated rounds.

use super::sweep::SweepSample;
use crate::metrics::bytes_to_mb;
use crate::scenario::AppKind;

/// One application family's dataset row.
#[derive(Clone, Copy, Debug)]
pub struct DatasetRow {
    /// Application family (the paper groups both webcams together).
    pub family: &'static str,
    /// Number of 1 Hz charging data records across all rounds.
    pub cdr_count: u64,
    /// Total charged volume, MB.
    pub volume_mb: f64,
}

/// The paper's three application families.
fn family_of(app: AppKind) -> &'static str {
    match app {
        AppKind::WebcamRtsp | AppKind::WebcamUdp | AppKind::WebcamUdpDownlink => "WebCam stream",
        AppKind::Gaming => "Online gaming",
        AppKind::Vr => "VRidge",
    }
}

/// Builds the table from sweep samples.
pub fn from_samples(samples: &[SweepSample]) -> Vec<DatasetRow> {
    let mut rows: Vec<DatasetRow> = Vec::new();
    for s in samples {
        let family = family_of(s.app);
        let cdrs = s.cycle_secs as u64; // 1 Hz usage records
        let volume = s.comparison.intended;
        match rows.iter_mut().find(|r| r.family == family) {
            Some(r) => {
                r.cdr_count += cdrs;
                r.volume_mb += bytes_to_mb(volume);
            }
            None => rows.push(DatasetRow {
                family,
                cdr_count: cdrs,
                volume_mb: bytes_to_mb(volume),
            }),
        }
    }
    rows
}

/// Prints the table in the paper's layout.
pub fn print(rows: &[DatasetRow]) {
    println!("Fig. 11c — experimental dataset");
    println!("{:<16} {:>14} {:>14}", "family", "# CDRs", "volume (MB)");
    for r in rows {
        println!("{:<16} {:>14} {:>14.1}", r.family, r.cdr_count, r.volume_mb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::sweep::sweep_over;
    use crate::experiments::RunScale;

    #[test]
    fn families_aggregate_correctly() {
        let samples = sweep_over(
            RunScale::Quick,
            &[AppKind::WebcamRtsp, AppKind::WebcamUdp, AppKind::Vr],
            &[0.0],
        );
        let rows = from_samples(&samples);
        assert_eq!(rows.len(), 2); // two webcams merge; VR separate
        let webcam = rows.iter().find(|r| r.family == "WebCam stream").unwrap();
        let vr = rows.iter().find(|r| r.family == "VRidge").unwrap();
        assert!(webcam.cdr_count > 0 && vr.cdr_count > 0);
        // VR's per-round volume dwarfs the webcams' (9 vs ~2.5 Mbps), and
        // here VR has half the rounds: still larger volume.
        assert!(vr.volume_mb > webcam.volume_mb / 2.0);
    }

    #[test]
    fn cdr_count_is_one_hertz() {
        let samples = sweep_over(RunScale::Quick, &[AppKind::Gaming], &[0.0]);
        let rows = from_samples(&samples);
        let expected: u64 = samples.iter().map(|s| s.cycle_secs as u64).sum();
        assert_eq!(rows[0].cdr_count, expected);
    }
}
