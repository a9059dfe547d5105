//! Fixture: a no-panic root that reaches a panic only via a two-hop
//! call chain. This file itself contains no panic token, so clippy's
//! `unwrap_used` sees nothing here; only the transitive pass can
//! connect it to `helper_deep`'s `.expect()`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::fixture_helper::helper_mid;

pub fn verify_frame(buf: &[u8]) -> usize {
    helper_mid(buf)
}
