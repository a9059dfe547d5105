//! Charging-record monitors and tamper models (§5.4).
//!
//! The paper compares three ways the operator can learn the device's
//! received downlink volume:
//!
//! 1. **Strawman 1** — user-space monitor over legacy OS APIs
//!    (`TrafficStats`/`netstat`): tamperable by a selfish edge,
//! 2. **Strawman 2** — rooted system monitor: tamper-resilient but needs
//!    system privilege and raises privacy concerns,
//! 3. **TLC's choice** — user-space monitor backed by the hardware modem
//!    via RRC COUNTER CHECK: tamper-resilient without root.
//!
//! Here a [`MonitorKind`] selects the source, and a [`TamperPolicy`]
//! models what a selfish edge does to sources it can reach.

/// Which mechanism backs a downlink usage report.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MonitorKind {
    /// Strawman 1: user-space app reading OS counters. Tamperable.
    UserSpaceApi,
    /// Strawman 2: privileged system monitor inspecting all packets.
    /// Tamper-resilient; requires root; privacy cost.
    RootedSystemMonitor,
    /// TLC: RRC COUNTER CHECK against the hardware modem. Tamper-resilient
    /// without root.
    RrcCounterCheck,
}

impl MonitorKind {
    /// Whether a selfish *edge* can falsify this monitor's reading.
    pub fn edge_can_tamper(&self) -> bool {
        matches!(self, MonitorKind::UserSpaceApi)
    }

    /// Whether deploying this monitor requires system privilege on the
    /// device.
    pub fn requires_root(&self) -> bool {
        matches!(self, MonitorKind::RootedSystemMonitor)
    }

    /// Whether this monitor lets the operator observe packet contents
    /// (the privacy objection to strawman 2).
    pub fn privacy_invasive(&self) -> bool {
        matches!(self, MonitorKind::RootedSystemMonitor)
    }
}

/// What a party does to a counter it controls before reporting it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TamperPolicy {
    /// Report the truth.
    Honest,
    /// Report `factor × truth` (selfish edge uses factor < 1 to
    /// under-claim; selfish operator factor > 1 to over-claim).
    Scale(f64),
    /// Subtract a fixed number of bytes (floor at zero) — e.g. the
    /// "reset the bill cycle" trick of §3.3.
    Deduct(u64),
    /// Report zero — the most aggressive under-claim.
    Zero,
}

impl TamperPolicy {
    /// Applies the policy to a true byte count.
    pub fn apply(&self, truth: u64) -> u64 {
        match self {
            TamperPolicy::Honest => truth,
            TamperPolicy::Scale(f) => {
                assert!(*f >= 0.0 && f.is_finite(), "scale must be non-negative");
                (truth as f64 * f).round() as u64
            }
            TamperPolicy::Deduct(d) => truth.saturating_sub(*d),
            TamperPolicy::Zero => 0,
        }
    }
}

/// A downlink usage report assembled by the operator from a monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorReport {
    /// Source mechanism.
    pub kind: MonitorKind,
    /// Bytes the operator believes the device received.
    pub reported_bytes: u64,
}

/// Computes what the operator's monitor reports, given the ground-truth
/// modem count and the edge's tamper policy.
///
/// Only the user-space API monitor is reachable by edge tampering; the
/// rooted monitor and the RRC counter check read hardware/kernel state the
/// edge cannot alter (§5.4, footnote 7: no known attacks manipulate the
/// cellular modem's traffic statistics).
pub fn operator_downlink_report(
    kind: MonitorKind,
    modem_truth_bytes: u64,
    edge_tamper: TamperPolicy,
) -> MonitorReport {
    let reported_bytes = if kind.edge_can_tamper() {
        edge_tamper.apply(modem_truth_bytes)
    } else {
        modem_truth_bytes
    };
    MonitorReport {
        kind,
        reported_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tamper_matrix_matches_paper() {
        assert!(MonitorKind::UserSpaceApi.edge_can_tamper());
        assert!(!MonitorKind::RootedSystemMonitor.edge_can_tamper());
        assert!(!MonitorKind::RrcCounterCheck.edge_can_tamper());

        assert!(!MonitorKind::UserSpaceApi.requires_root());
        assert!(MonitorKind::RootedSystemMonitor.requires_root());
        assert!(!MonitorKind::RrcCounterCheck.requires_root());

        assert!(MonitorKind::RootedSystemMonitor.privacy_invasive());
        assert!(!MonitorKind::RrcCounterCheck.privacy_invasive());
    }

    #[test]
    fn tamper_policies_apply() {
        assert_eq!(TamperPolicy::Honest.apply(1000), 1000);
        assert_eq!(TamperPolicy::Scale(0.5).apply(1000), 500);
        assert_eq!(TamperPolicy::Scale(1.2).apply(1000), 1200);
        assert_eq!(TamperPolicy::Deduct(300).apply(1000), 700);
        assert_eq!(TamperPolicy::Deduct(5000).apply(1000), 0);
        assert_eq!(TamperPolicy::Zero.apply(1000), 0);
    }

    #[test]
    fn user_space_monitor_is_fooled() {
        let r = operator_downlink_report(
            MonitorKind::UserSpaceApi,
            1_000_000,
            TamperPolicy::Scale(0.1),
        );
        assert_eq!(r.reported_bytes, 100_000);
    }

    #[test]
    fn rrc_monitor_resists_tampering() {
        let r =
            operator_downlink_report(MonitorKind::RrcCounterCheck, 1_000_000, TamperPolicy::Zero);
        assert_eq!(r.reported_bytes, 1_000_000);
    }

    #[test]
    fn rooted_monitor_resists_tampering() {
        let r = operator_downlink_report(
            MonitorKind::RootedSystemMonitor,
            1_000_000,
            TamperPolicy::Deduct(999_999),
        );
        assert_eq!(r.reported_bytes, 1_000_000);
    }

    #[test]
    #[should_panic]
    fn negative_scale_rejected() {
        TamperPolicy::Scale(-1.0).apply(10);
    }
}
