//! Helpers shared by the bench crate's report writers, which live in
//! `src/bin/`.

/// `n` messages of `len` bytes, no two alike (`len` ≥ 8).
///
/// Signing is timed over a rotating set of these: one fixed message
/// lets the branch predictor learn the whole exponentiation and reads
/// ~20% low against what a negotiator pays, where every message is new.
pub fn distinct_messages(n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n as u64)
        .map(|i| {
            let mut m = vec![0xA5u8; len];
            m[..8].copy_from_slice(&i.to_be_bytes());
            m
        })
        .collect()
}

/// The value following `--name` on the command line, if any.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Exits with status 2 and a usage line if `args` holds a `--flag`
/// that is not in `known`: a stale or mistyped flag must not silently
/// measure the default configuration.
pub fn reject_unknown_flags(args: &[String], known: &[&str]) {
    let stranger = |a: &&String| a.starts_with("--") && !known.contains(&a.as_str());
    if let Some(flag) = args.iter().find(stranger) {
        eprintln!("unknown flag `{flag}`; usage: [{}]", known.join("] ["));
        std::process::exit(2);
    }
}
