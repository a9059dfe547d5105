//! # tlc-crypto
//!
//! From-scratch cryptographic substrate for the TLC reproduction of
//! *"Bridging the Data Charging Gap in the Cellular Edge"* (SIGCOMM '19).
//!
//! The paper's prototype signs its Charging Data Records (CDR), Charging
//! Data Acceptances (CDA), and Proofs-of-Charging (PoC) with RSA-1024 via
//! `java.security`. No external crypto crates are available in this build
//! environment, so the full primitive stack is implemented here:
//!
//! * [`bigint`] — arbitrary-precision unsigned arithmetic (Knuth division,
//!   extended Euclid, modular exponentiation),
//! * [`montgomery`] — Montgomery-form modular multiplication for odd moduli,
//! * [`sha256`] / [`hmac`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC,
//! * [`prime`] — Miller–Rabin testing and prime generation,
//! * [`rsa`] — key generation (CRT private keys) and raw RSA,
//! * [`pkcs1`] — RSASSA-PKCS1-v1_5 with SHA-256 (aka `SHA256withRSA`),
//! * [`rng`] — deterministic, seedable byte source so simulations reproduce,
//! * [`encoding`] — stable wire form for public keys.
//!
//! ## Example
//!
//! ```
//! use tlc_crypto::rsa::KeyPair;
//! use tlc_crypto::pkcs1;
//!
//! let kp = KeyPair::generate_for_seed(1024, 42).unwrap();
//! let sig = pkcs1::sign(&kp.private, b"datavolumeDownlink=33604032").unwrap();
//! assert_eq!(sig.len(), 128); // RSA-1024 signature
//! pkcs1::verify(&kp.public, b"datavolumeDownlink=33604032", &sig).unwrap();
//! ```
//!
//! ## Security note
//!
//! This implementation prioritises clarity and reproducibility of the
//! paper's measurements over side-channel hardening. Do not reuse it to
//! protect real data; RSA-1024 itself is below modern minimums (the paper
//! chose it in 2019 for prototype parity).

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod bigint;
pub mod encoding;
pub mod error;
pub mod hmac;
pub mod ifma;
pub mod montgomery;
pub mod pkcs1;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha256;

pub use bigint::BigUint;
pub use error::CryptoError;
pub use rng::{DeterministicRng, RngSource};
pub use rsa::{KeyPair, PrivateKey, PublicKey};
