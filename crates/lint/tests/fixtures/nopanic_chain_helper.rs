//! Fixture: helpers living *outside* the no-panic scope. The deep one
//! panics on empty input; the middle one merely forwards. A no-panic
//! root that calls `helper_mid` may therefore panic two hops away from
//! its own file.

pub fn helper_mid(buf: &[u8]) -> usize {
    helper_deep(buf)
}

pub fn helper_deep(buf: &[u8]) -> usize {
    let first = buf.first().expect("non-empty frame");
    *first as usize
}
