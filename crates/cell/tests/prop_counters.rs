//! A counting point read "as of instant t" agrees with its total.
//!
//! For any sequence of packet records, `bytes_until` starts at zero,
//! never decreases as `t` grows, never exceeds `bytes()`, and equals it
//! from the end of the bucket holding the latest record.

use proptest::prelude::*;
use tlc_cell::counters::{CountingPoint, SERIES_BUCKET};
use tlc_net::time::SimTime;

/// Records land in the first 20 buckets, so several share one.
const BUCKETS: u64 = 20;

/// An instant in one of the first `buckets` buckets; half of them on
/// a bucket's first or last microsecond, where an off-by-one shows.
fn arb_instant(buckets: u64) -> impl Strategy<Value = u64> {
    let bw = SERIES_BUCKET.0;
    (0..buckets, 0u8..4, 0..bw).prop_map(move |(k, edge, offset)| {
        k * bw
            + match edge {
                0 => 0,
                1 => bw - 1,
                _ => offset,
            }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_bytes_until_is_a_monotone_prefix_of_bytes(
        records in proptest::collection::vec((arb_instant(BUCKETS), any::<u32>()), 0..40),
        probes in proptest::collection::vec(arb_instant(BUCKETS + 3), 0..40),
    ) {
        let mut point = CountingPoint::new();
        for &(t, size) in &records {
            point.record(SimTime::from_micros(t), size);
        }
        let bw = SERIES_BUCKET.0;
        let end = records.iter().map(|&(t, _)| (t / bw + 1) * bw).max().unwrap_or(0);

        prop_assert_eq!(point.bytes_until(SimTime::ZERO), 0);
        // Every bucket edge up to one past the end, the probes, and
        // their neighbours, in ascending order.
        let mut ts: Vec<u64> = (0..=end / bw + 1).map(|k| k * bw).collect();
        ts.extend(probes.iter().flat_map(|&t| [t.saturating_sub(1), t, t + 1]));
        ts.sort_unstable();
        let mut last = 0;
        for t in ts {
            let seen = point.bytes_until(SimTime::from_micros(t));
            prop_assert!(seen >= last, "bytes_until fell from {} to {} at t={}", last, seen, t);
            prop_assert!(seen <= point.bytes(), "bytes_until({}) = {} > {}", t, seen, point.bytes());
            if t >= end {
                prop_assert_eq!(seen, point.bytes(), "t={} end={}", t, end);
            }
            last = seen;
        }
    }
}
