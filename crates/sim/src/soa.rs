//! Per-session charging counters for the digital twin ([`crate::twin`]).
//!
//! A session's charging state — what the edge sent, what the
//! operator's gateway metered, what the device/modem actually got,
//! loss tallies, the operator's monitor lag, and the cycle boundary —
//! is one [`ChargeRow`], and the home operator's row sits inside the
//! twin's session record: the accounting tick that has fetched the
//! session for its profile and RNG finds its counters on the next
//! cache line, not in eight parallel columns a cache miss apart (the
//! struct-of-arrays layout this module is named for). The visited
//! operator's rows, touched only by roamers, are a plain `Vec` of the
//! same type indexed by arena slot.
//!
//! A row is zeroed by [`ChargeRow::start_cycle`] at admit and at every
//! settlement, so slot reuse starts from a clean row by construction.
//! [`ChargeRow::accrue`], [`ChargeRow::handover_flush`],
//! [`ChargeRow::set_monitor_lag`] and `start_cycle` are used identically
//! by the session's own row and by the visited operator's bank, which is
//! never grown without a roaming plane.

#![deny(
    clippy::arithmetic_side_effects,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap
)]

/// One session's charging counters for the open cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChargeRow {
    /// Bytes the edge sent this cycle (x̂_e side of the truth pair).
    pub sent: u64,
    /// Bytes delivered through to the far vantage (x̂_o side).
    pub delivered: u64,
    /// Bytes the operator's gateway metered (what legacy bills).
    pub gateway: u64,
    /// Bytes lost to residual air loss.
    pub lost_air: u64,
    /// Bytes lost to cell congestion.
    pub lost_congestion: u64,
    /// Bytes flushed by handovers (link-layer mobility loss, §3.1).
    pub lost_handover: u64,
    /// Bytes the operator's monitor has not yet observed (RRC
    /// COUNTER CHECK lag): its measured view is `delivered - lag`.
    pub monitor_lag: u64,
    /// Cycle start, µs of twin time.
    pub cycle_start_us: u64,
}

impl ChargeRow {
    /// Clears the counters, stamps a fresh cycle start, and returns
    /// the cycle that just closed.
    pub fn start_cycle(&mut self, now_us: u64) -> ChargeRow {
        let fresh = ChargeRow {
            cycle_start_us: now_us,
            ..ChargeRow::default()
        };
        std::mem::replace(self, fresh)
    }

    /// Accrues one accounting tick: the edge sent `sent` bytes, of
    /// which `air`/`congestion` bytes were lost before the charged
    /// far vantage. `gateway_before_loss` says whether the gateway
    /// meter sits upstream of the loss (downlink: it bills everything
    /// sent) or downstream (uplink: it bills what survived).
    pub fn accrue(&mut self, sent: u64, air: u64, congestion: u64, gateway_before_loss: bool) {
        let lost = air.saturating_add(congestion).min(sent);
        let delivered = sent.saturating_sub(lost);
        let gateway = if gateway_before_loss { sent } else { delivered };
        self.sent = self.sent.saturating_add(sent);
        self.delivered = self.delivered.saturating_add(delivered);
        self.gateway = self.gateway.saturating_add(gateway);
        self.lost_air = self.lost_air.saturating_add(air.min(sent));
        self.lost_congestion = self
            .lost_congestion
            .saturating_add(congestion.min(sent.saturating_sub(air)));
    }

    /// Charges a handover flush: `bytes` already counted as delivered
    /// are clawed back into mobility loss (they were buffered in the
    /// cell and dropped by the handover before reaching the device).
    pub fn handover_flush(&mut self, bytes: u64) -> u64 {
        let clawed = bytes.min(self.delivered);
        self.delivered = self.delivered.saturating_sub(clawed);
        self.lost_handover = self.lost_handover.saturating_add(clawed);
        clawed
    }

    /// Sets the operator's monitor lag (bytes its measured view trails
    /// the delivered truth).
    pub fn set_monitor_lag(&mut self, lag: u64) {
        self.monitor_lag = lag.min(self.delivered);
    }
}

/// Aggregate gap accounting over settled cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GapSweep {
    /// Rows with any counted traffic.
    pub active_rows: u64,
    /// Σ sent.
    pub total_sent: u64,
    /// Σ delivered.
    pub total_delivered: u64,
    /// Σ gateway-metered.
    pub total_gateway: u64,
    /// Σ plan-intended charge x̂ (Eq. 1 over the truth pair).
    pub intended: u64,
    /// Σ |legacy charge − x̂|.
    pub legacy_gap: u64,
    /// Σ |TLC honest charge − x̂| (TLC priced on measured records,
    /// i.e. with the operator's monitor lag applied).
    pub tlc_gap: u64,
}

impl GapSweep {
    /// Aggregate legacy gap ratio ε = ΣΔ / Σx̂.
    pub fn legacy_gap_ratio(&self) -> f64 {
        if self.intended == 0 {
            0.0
        } else {
            self.legacy_gap as f64 / self.intended as f64
        }
    }

    /// Aggregate TLC gap ratio.
    pub fn tlc_gap_ratio(&self) -> f64 {
        if self.intended == 0 {
            0.0
        } else {
            self.tlc_gap as f64 / self.intended as f64
        }
    }

    /// Folds another sweep (shard merge, done in shard order).
    /// Saturating: a wrapped aggregate would *be* a charging gap.
    pub fn merge(&mut self, other: &GapSweep) {
        self.active_rows = self.active_rows.saturating_add(other.active_rows);
        self.total_sent = self.total_sent.saturating_add(other.total_sent);
        self.total_delivered = self.total_delivered.saturating_add(other.total_delivered);
        self.total_gateway = self.total_gateway.saturating_add(other.total_gateway);
        self.intended = self.intended.saturating_add(other.intended);
        self.legacy_gap = self.legacy_gap.saturating_add(other.legacy_gap);
        self.tlc_gap = self.tlc_gap.saturating_add(other.tlc_gap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::settle_twin_row;
    use tlc_core::plan::DataPlan;

    /// Prices `row` at the paper's plan (c = 0.5), as the twin's settle
    /// path does, into a one-cycle sweep.
    fn sweep(row: &ChargeRow) -> GapSweep {
        let s = settle_twin_row(row, &DataPlan::paper_default());
        GapSweep {
            active_rows: 1,
            total_sent: row.sent,
            total_delivered: row.delivered,
            total_gateway: row.gateway,
            intended: s.intended,
            legacy_gap: s.legacy_gap(),
            tlc_gap: s.tlc_gap(),
        }
    }

    #[test]
    fn accrue_uplink_vs_downlink_gateway_placement() {
        let (mut ul, mut dl) = (ChargeRow::default(), ChargeRow::default());
        // Uplink: gateway meters after loss.
        ul.accrue(1000, 60, 40, false);
        // Downlink: gateway meters before loss.
        dl.accrue(1000, 60, 40, true);
        assert_eq!(ul.delivered, 900);
        assert_eq!(ul.gateway, 900, "uplink gateway bills survivors");
        assert_eq!(dl.delivered, 900);
        assert_eq!(dl.gateway, 1000, "downlink gateway bills everything sent");
        assert_eq!(ul.lost_air + ul.lost_congestion, 100);
    }

    #[test]
    fn sweep_prices_gap_between_vantages() {
        let mut r = ChargeRow::default();
        r.accrue(1000, 0, 200, true); // DL: sent 1000, delivered 800
        let s = sweep(&r);
        // intended = 800 + 0.5·200 = 900; legacy bills 1000 → gap 100.
        assert_eq!(s.intended, 900);
        assert_eq!(s.legacy_gap, 100);
        assert_eq!(s.tlc_gap, 0, "honest TLC with no monitor lag is exact");
        assert!((s.legacy_gap_ratio() - 100.0 / 900.0).abs() < 1e-12);
    }

    #[test]
    fn monitor_lag_moves_tlc_but_less_than_legacy() {
        let mut r = ChargeRow::default();
        r.accrue(1000, 0, 200, true);
        r.set_monitor_lag(80);
        let s = sweep(&r);
        // Measured pair (1000, 720) → TLC 860 vs intended 900.
        assert_eq!(s.tlc_gap, 40);
        assert!(s.tlc_gap < s.legacy_gap);
    }

    #[test]
    fn handover_flush_claws_back_delivered() {
        let mut r = ChargeRow::default();
        r.accrue(1000, 0, 0, true);
        assert_eq!(r.handover_flush(300), 300);
        assert_eq!(r.delivered, 700);
        assert_eq!(r.lost_handover, 300);
        assert_eq!(r.gateway, 1000, "gateway already billed the flushed bytes");
        // Flush can never exceed what was delivered.
        assert_eq!(r.handover_flush(10_000), 700);
    }

    #[test]
    fn start_cycle_leaves_nothing_of_the_last_one() {
        let mut r = ChargeRow::default();
        r.accrue(700, 0, 100, true);
        r.handover_flush(50);
        r.set_monitor_lag(9);
        let closed = r;
        assert_eq!(r.start_cycle(42), closed);
        assert_eq!(
            r,
            ChargeRow {
                cycle_start_us: 42,
                ..ChargeRow::default()
            }
        );
    }
}
