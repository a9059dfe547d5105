//! Clock skew between the edge nodes and the cellular core.
//!
//! TLC requires the operator and edge to agree on the charging cycle
//! boundary `T = (T_start, T_end)` (§4), synchronized via NTP. Residual
//! skew means the two sides snapshot their counters at slightly different
//! true instants, which is the paper's stated cause of the CDR errors in
//! Fig. 18 ("due to the asynchronous charging cycle start/end").

use tlc_net::rng::SimRng;
use tlc_net::time::SimTime;

/// A party's clock, offset from true simulation time.
#[derive(Clone, Copy, Debug)]
pub struct SkewedClock {
    /// Offset in microseconds added to true time to get this clock's
    /// reading (may be negative).
    pub offset_us: i64,
}

impl SkewedClock {
    /// Draws a residual-NTP-sync offset: zero-mean normal with the given
    /// standard deviation in milliseconds. Public NTP over cellular
    /// backhaul typically leaves tens-of-ms residuals; the paper's worst
    /// observed CDR error (12.7%) corresponds to second-scale desync.
    pub fn ntp_residual(std_dev_ms: f64, rng: &mut SimRng) -> Self {
        let offset_ms = rng.normal(0.0, std_dev_ms);
        SkewedClock {
            offset_us: (offset_ms * 1000.0) as i64,
        }
    }

    /// The true instant at which this clock shows local time `local`.
    ///
    /// A clock running ahead (positive offset) reaches any local reading
    /// *earlier* in true time; saturates at zero.
    pub fn true_time_of(&self, local: SimTime) -> SimTime {
        let t = local.as_micros() as i64 - self.offset_us;
        SimTime(t.max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_is_identity() {
        let c = SkewedClock { offset_us: 0 };
        let t = SimTime::from_secs(100);
        assert_eq!(c.true_time_of(t), t);
    }

    #[test]
    fn ahead_clock_fires_early() {
        // +50 ms offset: the clock shows "cycle end" 50 ms before true end.
        let c = SkewedClock { offset_us: 50_000 };
        let cycle_end_local = SimTime::from_secs(3600);
        assert_eq!(
            c.true_time_of(cycle_end_local),
            SimTime::from_micros(3600 * 1_000_000 - 50_000)
        );
    }

    #[test]
    fn behind_clock_fires_late() {
        let c = SkewedClock { offset_us: -50_000 };
        assert_eq!(
            c.true_time_of(SimTime::from_secs(1)),
            SimTime::from_micros(1_050_000)
        );
    }

    #[test]
    fn saturates_at_epoch() {
        let c = SkewedClock {
            offset_us: 5_000_000,
        };
        assert_eq!(c.true_time_of(SimTime::from_secs(1)), SimTime::ZERO);
    }

    #[test]
    fn ntp_residual_is_zero_mean() {
        let mut rng = SimRng::new(1);
        let n = 5000;
        let mean: f64 = (0..n)
            .map(|_| SkewedClock::ntp_residual(30.0, &mut rng).offset_us as f64)
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 3000.0, "mean offset {mean} us");
    }
}
