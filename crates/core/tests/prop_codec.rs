//! Canonical, total decode for the ten payload grammars that
//! `prop_settle_codec` does not cover and for the three signed messages.
//! Valid payloads are assembled byte by byte from the grammar table in
//! `codec.rs`'s module doc, not through the encoders, so decode is held
//! to the written grammar and the encoders are held to decode.

use proptest::collection::vec;
use proptest::prelude::*;
use tlc_core::messages::{chain_digests_many, CdaMsg, CdrMsg, MessageError, PocMsg};
use tlc_core::verify::remote::codec::*;
use tlc_net::wire::FrameKind;

/// A splitmix64 stream that appends grammar productions to `out`: one
/// arbitrary seed builds a valid payload of every kind.
struct Soup {
    seed: u64,
    out: Vec<u8>,
}

impl Soup {
    fn word(&mut self) -> u64 {
        self.seed = self.seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (self.seed ^ (self.seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.word() % n
    }

    /// `n` arbitrary bytes.
    fn bytes(&mut self, n: usize) {
        for _ in 0..n {
            let byte = self.word() as u8;
            self.out.push(byte);
        }
    }

    /// What `body` appends, behind its length as a `width`-byte integer.
    fn prefixed(&mut self, width: usize, body: impl FnOnce(&mut Soup)) {
        let outer = std::mem::take(&mut self.out);
        body(self);
        let inner = std::mem::replace(&mut self.out, outer);
        self.out.extend(&inner.len().to_be_bytes()[8 - width..]);
        self.out.extend(inner);
    }

    /// Up to `max` arbitrary bytes behind a `width`-byte length.
    fn blob(&mut self, width: usize, max: u64) {
        let len = self.below(max + 1) as usize;
        self.prefixed(width, |s| s.bytes(len));
    }

    /// One of `0..operands.len()` as a code byte, then as many arbitrary
    /// bytes as that code's operands take. Returns the code.
    fn coded(&mut self, operands: &[usize]) -> usize {
        let code = self.below(operands.len() as u64) as usize;
        self.out.push(code as u8);
        self.bytes(operands[code]);
        code
    }

    /// A string-table index on either side of its table's end.
    fn index(&mut self) {
        let idx = self.below(40) as u8;
        self.out.extend([0, idx]);
    }

    /// `start:u64 | end:u64 | c_e4:u32`, `start < end`, `c_e4 <= 10^4`.
    fn plan(&mut self) {
        let start = self.word() >> 1;
        let end = start + 1 + self.below(1 << 40);
        let c_e4 = self.below(10_001) as u32;
        self.out.extend(start.to_be_bytes());
        self.out.extend(end.to_be_bytes());
        self.out.extend(c_e4.to_be_bytes());
    }

    /// `len:u32 | TLV(1, TLV(2, n) | TLV(2, e))`, both integers minimal.
    fn key(&mut self) {
        self.prefixed(4, |s| {
            s.out.push(1);
            s.prefixed(4, |s| {
                for max in [64, 4] {
                    s.out.push(2);
                    let (top, rest) = (1 + s.below(255) as u8, s.below(max) as usize);
                    s.prefixed(4, |s| {
                        s.out.push(top);
                        s.bytes(rest);
                    });
                }
            });
        });
    }

    fn register(&mut self) {
        self.bytes(12);
        self.plan();
        self.key();
        self.key();
    }

    fn submit_batch(&mut self) {
        self.bytes(16);
        let count = self.below(5) as u32;
        self.out.extend(count.to_be_bytes());
        for _ in 0..count {
            self.blob(4, 200);
        }
    }

    /// `rel | tag | shard | result`, nested error codes included.
    fn verdict(&mut self) {
        self.bytes(20);
        if self.coded(&[32, 0, 0, 0, 0, 16, 0, 0]) == 1 {
            match self.coded(&[0, 0, 0]) {
                1 => self.index(),
                2 if self.coded(&[0, 8, 0, 16, 0, 0, 0]) == 5 => self.index(),
                _ => {}
            }
        }
    }

    fn fault(&mut self) {
        if self.coded(&[4, 4, 8, 2, 0, 0]) == 4 {
            self.index();
        }
    }

    /// `tag | role | plan`, then `fixed` bytes of integers and nonces.
    fn signed_head(&mut self, tag: u8, fixed: usize) {
        let role = self.below(2) as u8;
        self.out.extend([tag, role]);
        self.plan();
        self.bytes(fixed);
    }

    fn cdr(&mut self) {
        self.signed_head(1, 32);
        self.blob(2, 140);
    }

    fn cda(&mut self) {
        self.signed_head(2, 32);
        self.prefixed(2, Soup::cdr);
        self.blob(2, 140);
    }

    fn poc(&mut self) {
        self.signed_head(3, 8);
        self.prefixed(2, Soup::cda);
        self.blob(2, 140);
        self.bytes(32);
    }
}

/// One decoder and its written grammar, erased to bytes.
struct Kind {
    name: &'static str,
    /// Appends a payload the grammar table says is valid.
    valid: fn(&mut Soup),
    /// Decodes, then encodes what was decoded.
    recode: fn(&[u8]) -> Result<Vec<u8>, &'static str>,
    /// The detail that trailing bytes draw; a cut-short payload draws
    /// this or one of `cut`.
    long: &'static str,
    cut: &'static [&'static str],
    /// What decode may forget, as `(original, re-encoded)`.
    slack: fn(&[u8], &[u8]) -> bool,
}

/// The payload ends in a string-table index; one past this decoder's
/// table resolves to the fallback by design, which interns as 0xFFFF.
fn index_tail(original: &[u8], again: &[u8]) -> bool {
    let body = original.len().saturating_sub(2);
    again.len() == original.len() && again[..body] == original[..body] && again[body..] == [0xFF; 2]
}

/// `tlc_crypto::encoding` reads a key's integers through `BigUint`, which
/// drops leading zero bytes: the one place a longer byte string decodes
/// to the same value (an overwritten byte can produce it). A rejection
/// would need a new `ENCODING_STRINGS` entry; recorded in ROADMAP.
fn key_zeros(original: &[u8], again: &[u8]) -> bool {
    again.len() < original.len()
}

fn malformed(e: MessageError) -> &'static str {
    match e {
        MessageError::Malformed(detail) => detail,
        _ => "decode failed with something other than Malformed",
    }
}

/// A kind that decodes exactly and reports one detail.
const fn kind(
    name: &'static str,
    valid: fn(&mut Soup),
    recode: fn(&[u8]) -> Result<Vec<u8>, &'static str>,
    long: &'static str,
) -> Kind {
    Kind {
        name,
        valid,
        recode,
        long,
        cut: &[],
        slack: |_, _| false,
    }
}

/// A frame payload kind: `$ty::decode`, `to_frame`, "truncated $name".
macro_rules! frame {
    ($name:literal, $valid:expr, $ty:ident $(, $to_frame_arg:expr)?) => {
        kind(
            $name,
            $valid,
            |b| $ty::decode(b).map(|m| m.to_frame($($to_frame_arg)?).payload),
            concat!("truncated ", $name),
        )
    };
}

/// A signed message: any `Malformed` detail when cut short.
macro_rules! signed {
    ($name:literal, $valid:expr, $ty:ident) => {
        Kind {
            cut: MALFORMED_STRINGS,
            ..kind(
                $name,
                $valid,
                |b| $ty::decode(b).map(|m| m.encode()).map_err(malformed),
                concat!("trailing bytes after ", $name),
            )
        }
    };
}

/// SUBMIT and SUBMIT_BATCH decode to borrowed views; re-encode through
/// the owned twins.
fn recode_submit(b: &[u8]) -> Result<Vec<u8>, &'static str> {
    let SubmitRef { rel, tag, poc } = SubmitRef::decode(b)?;
    let poc = poc.to_vec();
    Ok(Submit { rel, tag, poc }.to_frame().payload)
}

fn recode_submit_batch(b: &[u8]) -> Result<Vec<u8>, &'static str> {
    let view = SubmitBatchRef::decode(b)?;
    let owned = SubmitBatch {
        rel: view.rel,
        first_tag: view.first_tag,
        pocs: view.pocs.iter().map(|p| p.to_vec()).collect(),
    };
    Ok(owned.to_frame().payload)
}

#[rustfmt::skip]
const KINDS: &[Kind] = &[
    frame!("HELLO", |s| s.bytes(10), Hello),
    frame!("HELLO_ACK", |s| s.bytes(10), HelloAck),
    Kind { cut: &["bad plan in REGISTER"], slack: key_zeros, ..frame!("REGISTER", Soup::register, Register) },
    frame!("REGISTERED", |s| s.bytes(12), Registered),
    kind("SUBMIT", |s| { s.bytes(16); s.blob(4, 600) }, recode_submit, "truncated SUBMIT"),
    kind("SUBMIT_BATCH", Soup::submit_batch, recode_submit_batch, "truncated SUBMIT_BATCH"),
    Kind { slack: index_tail, ..frame!("VERDICT", Soup::verdict, VerdictMsg) },
    frame!("STATS", |s| s.bytes(128), StatsSnapshot, FrameKind::Stats),
    Kind { slack: index_tail, ..frame!("ERROR", Soup::fault, Fault) },
    frame!("BUSY", |s| { s.coded(&[0, 0]); s.bytes(20) }, BusyMsg),
    signed!("CDR", Soup::cdr, CdrMsg),
    signed!("CDA", Soup::cda, CdaMsg),
    signed!("PoC", Soup::poc, PocMsg),
];

/// Law (a): whatever decodes is the one encoding of its value.
fn canonical(k: &Kind, bytes: &[u8]) {
    let Ok(again) = (k.recode)(bytes) else {
        return;
    };
    assert!(
        again == bytes || (k.slack)(bytes, &again),
        "{}: {bytes:02x?} decodes, but its value encodes as {again:02x?}",
        k.name
    );
    assert_eq!((k.recode)(&again).as_ref(), Ok(&again), "{}", k.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// (a) Arbitrary bytes panic no decoder, and decode canonically or
    /// not at all.
    #[test]
    fn arbitrary_bytes_decode_canonically_or_not_at_all(bytes in vec(any::<u8>(), 0..160)) {
        for k in KINDS {
            canonical(k, &bytes);
        }
    }

    /// (a) where decode gets further — a valid payload, then the same
    /// with one byte overwritten — and (b): no proper prefix and no
    /// payload with a byte appended decodes, and each says so in its
    /// own kind's words.
    #[test]
    fn valid_payloads_decode_and_have_no_slack(seed in any::<u64>()) {
        let mut s = Soup { seed, out: Vec::new() };
        for k in KINDS {
            (k.valid)(&mut s);
            let payload = std::mem::take(&mut s.out);
            prop_assert!((k.recode)(&payload).is_ok(), "{}: {payload:02x?}", k.name);
            canonical(k, &payload);

            let mut mutated = payload.clone();
            let at = s.below(payload.len() as u64) as usize;
            mutated[at] = if s.below(2) == 0 { s.below(9) as u8 } else { s.word() as u8 };
            canonical(k, &mutated);

            for cut in 0..payload.len() {
                let detail = (k.recode)(&payload[..cut]).expect_err("a proper prefix decoded");
                prop_assert!(detail == k.long || k.cut.contains(&detail), "{} cut at {cut}: {detail}", k.name);
            }
            let long = [&payload[..], &[s.word() as u8]].concat();
            prop_assert_eq!((k.recode)(&long), Err(k.long), "{}", k.name);
        }
    }

    /// The law a verifier hashing received bytes rests on: a PoC
    /// encoding that decodes is the one encoding of its value, and its
    /// signed spans hash to that value's chain digests — so a shard
    /// (hashing what it read) and the in-process service (hashing the
    /// value) judge the same proof alike. Over a valid encoding, the
    /// same with one byte overwritten, every proper prefix, and one
    /// byte too long, the decodable ones hashed together in one
    /// `chain_digests_many` call, as a stage hashes a batch.
    #[test]
    fn received_poc_bytes_hash_to_their_values_chain_digests(seed in any::<u64>()) {
        let mut s = Soup { seed, out: Vec::new() };
        s.poc();
        let valid = std::mem::take(&mut s.out);
        let mut mutated = valid.clone();
        let at = s.below(valid.len() as u64) as usize;
        mutated[at] = if s.below(2) == 0 { s.below(9) as u8 } else { s.word() as u8 };
        let long = [&valid[..], &[s.word() as u8]].concat();
        let cuts = (0..valid.len()).map(|cut| valid[..cut].to_vec());
        let cases = [valid.clone(), mutated, long].into_iter().chain(cuts);

        prop_assert!(PocMsg::decode(&valid).is_ok(), "{valid:02x?}");
        let mut received = Vec::new();
        let mut values = Vec::new();
        for b in cases {
            if let Ok(poc) = PocMsg::decode(&b) {
                prop_assert_eq!(&poc.encode(), &b);
                values.push(poc.chain_digests());
                received.push(b);
            }
        }
        let views: Vec<&[u8]> = received.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(chain_digests_many(&views), values);
    }
}
