//! SHA-256 (FIPS 180-4).
//!
//! Used as the message digest inside EMSA-PKCS1-v1_5 signatures and for
//! content fingerprints in the TLC wire format. Streaming (`update`) and
//! one-shot (`digest`) interfaces are provided.
//!
//! Blocks are compressed with the SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`) where the CPU has them; the portable
//! rounds are the fallback everywhere else and the oracle the tests hold
//! the fast path to. [`kernel`] names the one in use.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size of SHA-256 in bytes (relevant to HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which block-compression routine a hasher runs. `ShaNi` is only ever
/// produced by [`Kernel::detect`] (or a test) after the CPU probe said
/// yes, which is what makes calling the `#[target_feature]` code sound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    ShaNi,
}

impl Kernel {
    /// The fastest kernel this CPU runs. `std` caches the CPUID probe, so
    /// this is three relaxed loads per hasher.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Portable
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => "sha-ni",
        }
    }
}

/// Name of the compression kernel hashing runs on, on this host (for
/// benchmark reports).
pub fn kernel() -> &'static str {
    Kernel::detect().name()
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    kernel: Kernel,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
            kernel,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// All aligned full blocks are compressed straight out of `data` in
    /// one kernel call — the internal buffer is only touched for a
    /// partial leading block (left over from a previous `update`) and
    /// the trailing remainder, so long canonical encodings hash with no
    /// per-block copy.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
        self.compress(blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finishes the hash, consuming the hasher.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding, written in place: the buffered tail, 0x80, zeros, and
        // the 64-bit big-endian bit length closing the first block with
        // room for it — one block, or two when the tail runs past byte 55.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        let tail = self.buf_len;
        pad[..tail].copy_from_slice(&self.buf[..tail]);
        pad[tail] = 0x80;
        let end = if tail < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        let bit_len = self.total_len.wrapping_mul(8);
        pad[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&pad[..end]);

        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Compresses `blocks` (a whole number of them) into the state.
    fn compress(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        match self.kernel {
            Kernel::Portable => compress_portable(&mut self.state, blocks),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => unsafe {
                // SAFETY: `Kernel::ShaNi` exists only after the probe
                // found sha + ssse3 + sse4.1 on this CPU (see `Kernel`).
                compress_sha_ni(&mut self.state, blocks)
            },
        }
    }
}

/// The FIPS 180-4 rounds in portable Rust.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The same rounds on the SHA extensions: four rounds per pair of
/// `sha256rnds2`, the message schedule four words at a time through
/// `sha256msg1`/`sha256msg2`. The instructions want the state as the
/// two vectors `ABEF` and `CDGH` (high lane first).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8,
    };
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    // Big-endian message words to little-endian lanes.
    let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // w[g % 4] holds schedule words 4g..4g+4 while round group g needs
        // them, then is overwritten with those of group g + 4.
        let mut w = [_mm_set_epi64x(0, 0); 4];
        for g in 0..16 {
            w[g % 4] = if g < 4 {
                let words = unsafe {
                    // SAFETY: `block` is 64 bytes, so bytes 16g..16g+16
                    // are in bounds; `loadu` needs no alignment.
                    _mm_loadu_si128(block.as_ptr().add(16 * g).cast())
                };
                _mm_shuffle_epi8(words, byte_swap)
            } else {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
                let (w16, w12, w8, w4) = (w[g % 4], w[(g + 1) % 4], w[(g + 2) % 4], w[(g + 3) % 4]);
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8::<4>(w4, w8));
                _mm_sha256msg2_epu32(partial, w4)
            };
            let k = unsafe {
                // SAFETY: K has 64 words, so words 4g..4g+4 are in bounds.
                _mm_loadu_si128(K.as_ptr().add(4 * g).cast::<__m128i>())
            };
            let wk = _mm_add_epi32(w[g % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|w| w as u32);
}

/// One-shot SHA-256.
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// [`digest`] on the portable rounds whatever the CPU: the oracle every
/// fast kernel is held to. Public only so the crate's equivalence tests
/// can reach it.
#[doc(hidden)]
pub fn digest_portable(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::with_kernel(Kernel::Portable);
    h.update(data);
    h.finalize()
}

/// Messages one [`Wide`] call carries: one per 32-bit element of a
/// 512-bit vector.
const WIDE_LANES: usize = 16;

/// Same-length calls with fewer messages than this go to the
/// single-stream kernel instead. A wide call costs the same whatever its
/// live count: on a 2-vCPU AVX-512 + SHA-NI Xeon, 3.0 / 1.8 / 0.68 µs at
/// 7 / 4 / 1 blocks, against 0.43 / 0.27 / 0.12 µs per message on
/// SHA-NI, so it pays from six or seven messages up.
const MIN_WIDE: usize = 7;

/// Blocks SHA-256 compresses for a message of `len` bytes: the data, the
/// `0x80` byte and the 8-byte length, rounded up.
fn padded_blocks(len: usize) -> usize {
    (len + 8) / BLOCK_LEN + 1
}

/// The 16-lane kernel, once the CPU probe said yes: holding one is what
/// makes calling the `#[target_feature]` code sound. Off x86-64 there is
/// none to hold.
#[derive(Clone, Copy)]
struct Wide(WideProof);

#[cfg(target_arch = "x86_64")]
type WideProof = ();
#[cfg(not(target_arch = "x86_64"))]
type WideProof = core::convert::Infallible;

impl Wide {
    fn detect() -> Option<Wide> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
        {
            return Some(Wide(()));
        }
        None
    }

    /// Digests of 1 to [`WIDE_LANES`] messages of `blocks` padded blocks
    /// each, in one pass of the rounds over all of them.
    fn digests(self, msgs: &[&[u8]], blocks: usize) -> [[u8; DIGEST_LEN]; WIDE_LANES] {
        debug_assert!((1..=WIDE_LANES).contains(&msgs.len()));
        debug_assert!(msgs.iter().all(|m| padded_blocks(m.len()) == blocks));
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: a `Wide` exists only after `detect` found AVX-512F
            // and BW on this CPU, the features `x16` is compiled for.
            unsafe { x16::digests(msgs, blocks) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        match self.0 {}
    }
}

/// Name of the kernel [`digest_many`] hashes a batch on, on this host
/// (for benchmark reports): the 16-lane one where the CPU has it, else
/// the single-stream [`kernel`].
pub fn batch_kernel() -> &'static str {
    match Wide::detect() {
        Some(_) => "avx512-16x",
        None => kernel(),
    }
}

/// SHA-256 of every message: exactly `msgs.iter().map(|m| digest(m))`.
///
/// On a CPU with AVX-512F + BW, messages of one padded length (in
/// blocks) are hashed sixteen to a call, one message per lane; a call
/// that would carry fewer than `MIN_WIDE` goes to the single-stream
/// kernel, as does every message of a smaller set and every message on
/// any other host.
pub fn digest_many(msgs: &[&[u8]]) -> Vec<[u8; DIGEST_LEN]> {
    let wide = match Wide::detect() {
        Some(wide) if msgs.len() >= MIN_WIDE => wide,
        _ => return msgs.iter().map(|m| digest(m)).collect(),
    };
    let mut out = vec![[0u8; DIGEST_LEN]; msgs.len()];
    let mut order: Vec<usize> = (0..msgs.len()).collect();
    order.sort_by_key(|&i| padded_blocks(msgs[i].len()));
    for group in
        order.chunk_by(|&a, &b| padded_blocks(msgs[a].len()) == padded_blocks(msgs[b].len()))
    {
        for call in group.chunks(WIDE_LANES) {
            if call.len() < MIN_WIDE {
                for &i in call {
                    out[i] = digest(msgs[i]);
                }
                continue;
            }
            let lanes: Vec<&[u8]> = call.iter().map(|&i| msgs[i]).collect();
            let digests = wide.digests(&lanes, padded_blocks(lanes[0].len()));
            for (&i, d) in call.iter().zip(digests) {
                out[i] = d;
            }
        }
    }
    out
}

/// The FIPS 180-4 rounds on sixteen messages at once, one per 32-bit
/// lane of a 512-bit vector: rotations are `vprord`, the three-input
/// boolean functions one `vpternlogd` each. Every lane walks the same
/// number of blocks; each lane's last one or two, which hold its tail,
/// the `0x80` byte and its bit length, are built in a buffer of its
/// own, and the rest are read in place.
#[cfg(target_arch = "x86_64")]
mod x16 {
    use super::{BLOCK_LEN, DIGEST_LEN, H0, K, WIDE_LANES};
    use core::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_ror_epi32, _mm512_set1_epi32,
        _mm512_set_epi64, _mm512_shuffle_epi8, _mm512_shuffle_i32x4, _mm512_srli_epi32,
        _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32,
        _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64,
    };

    /// `vpternlogd` truth tables: `a ^ b ^ c`, `a ? b : c`, majority.
    const XOR3: i32 = 0x96;
    const CHOOSE: i32 = 0xCA;
    const MAJORITY: i32 = 0xE8;

    /// Digests of `msgs` (1..=16 messages of `blocks` padded blocks each),
    /// in lane order; lanes past the live count hash a copy of lane 0
    /// and are dropped by the caller.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) fn digests(msgs: &[&[u8]], blocks: usize) -> [[u8; DIGEST_LEN]; WIDE_LANES] {
        let lane = |l: usize| msgs.get(l).copied().unwrap_or(msgs[0]);
        // The last one or two blocks of every lane, padded: the first
        // `in_place` blocks are whole data blocks read from the message.
        let in_place = blocks.saturating_sub(2);
        let tail_len = (blocks - in_place) * BLOCK_LEN;
        let mut tails = [[0u8; 2 * BLOCK_LEN]; WIDE_LANES];
        for (l, tail) in tails.iter_mut().enumerate() {
            let msg = lane(l);
            let rest = &msg[in_place * BLOCK_LEN..];
            tail[..rest.len()].copy_from_slice(rest);
            tail[rest.len()] = 0x80;
            let bit_len = (msg.len() as u64).wrapping_mul(8);
            tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        }

        let mut state = H0.map(|h| _mm512_set1_epi32(h as i32));
        for b in 0..blocks {
            let rows: [__m512i; WIDE_LANES] = core::array::from_fn(|l| {
                let block: &[u8] = if b < in_place {
                    &lane(l)[b * BLOCK_LEN..(b + 1) * BLOCK_LEN]
                } else {
                    &tails[l][(b - in_place) * BLOCK_LEN..(b - in_place + 1) * BLOCK_LEN]
                };
                // SAFETY: `block` is 64 bytes, one 512-bit load; `loadu`
                // needs no alignment.
                unsafe { _mm512_loadu_si512(block.as_ptr().cast()) }
            });
            compress(&mut state, &transpose(rows));
        }

        let mut words = [[0u32; WIDE_LANES]; 8];
        for (row, v) in words.iter_mut().zip(state) {
            // SAFETY: a row is 16 u32s, one 512-bit store; `storeu`
            // needs no alignment.
            unsafe { _mm512_storeu_si512(row.as_mut_ptr().cast(), v) };
        }
        core::array::from_fn(|l| {
            let mut out = [0u8; DIGEST_LEN];
            for (chunk, row) in out.chunks_exact_mut(4).zip(&words) {
                chunk.copy_from_slice(&row[l].to_be_bytes());
            }
            out
        })
    }

    /// Sixteen blocks, one per row, to sixteen big-endian schedule
    /// words, one per lane: word `t` of the result holds word `t` of
    /// every row. Bytes are swapped within each word first, then a
    /// 16 × 16 transpose of 32-bit words in four interleaving steps.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn transpose(rows: [__m512i; WIDE_LANES]) -> [__m512i; WIDE_LANES] {
        let byte_swap = _mm512_set_epi64(
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
            0x0c0d_0e0f_0809_0a0b,
            0x0405_0607_0001_0203,
        );
        let r = rows.map(|row| _mm512_shuffle_epi8(row, byte_swap));
        // Pairs of rows, word by word within each 128-bit lane.
        let t: [__m512i; 16] = core::array::from_fn(|i| {
            let (a, b) = (r[i & !1], r[i | 1]);
            if i % 2 == 0 {
                _mm512_unpacklo_epi32(a, b)
            } else {
                _mm512_unpackhi_epi32(a, b)
            }
        });
        // Fours of rows: u[4k + m] holds, in 128-bit lane q, word
        // 4q + m of rows 4k..4k + 4.
        let u: [__m512i; 16] = core::array::from_fn(|i| {
            let (k, m) = (i / 4, i % 4);
            let (a, b) = (t[4 * k + m / 2], t[4 * k + 2 + m / 2]);
            if m % 2 == 0 {
                _mm512_unpacklo_epi64(a, b)
            } else {
                _mm512_unpackhi_epi64(a, b)
            }
        });
        // A 4 × 4 transpose of 128-bit lanes across u[m], u[4 + m],
        // u[8 + m] and u[12 + m] puts word 4q + m of all sixteen rows
        // in one vector.
        let mut out = u;
        for m in 0..4 {
            let (a, b, c, d) = (u[m], u[4 + m], u[8 + m], u[12 + m]);
            let ab_lo = _mm512_shuffle_i32x4::<0x44>(a, b);
            let ab_hi = _mm512_shuffle_i32x4::<0xEE>(a, b);
            let cd_lo = _mm512_shuffle_i32x4::<0x44>(c, d);
            let cd_hi = _mm512_shuffle_i32x4::<0xEE>(c, d);
            out[m] = _mm512_shuffle_i32x4::<0x88>(ab_lo, cd_lo);
            out[4 + m] = _mm512_shuffle_i32x4::<0xDD>(ab_lo, cd_lo);
            out[8 + m] = _mm512_shuffle_i32x4::<0x88>(ab_hi, cd_hi);
            out[12 + m] = _mm512_shuffle_i32x4::<0xDD>(ab_hi, cd_hi);
        }
        out
    }

    /// One block of every lane into the state.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw")]
    fn compress(state: &mut [__m512i; 8], block: &[__m512i; WIDE_LANES]) {
        let xor3 = |a, b, c| _mm512_ternarylogic_epi32::<XOR3>(a, b, c);
        let mut w = *block;
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            if i >= 16 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
                let (w15, w2) = (w[(i + 1) % 16], w[(i + 14) % 16]);
                let s0 = xor3(
                    _mm512_ror_epi32::<7>(w15),
                    _mm512_ror_epi32::<18>(w15),
                    _mm512_srli_epi32::<3>(w15),
                );
                let s1 = xor3(
                    _mm512_ror_epi32::<17>(w2),
                    _mm512_ror_epi32::<19>(w2),
                    _mm512_srli_epi32::<10>(w2),
                );
                w[i % 16] = _mm512_add_epi32(
                    _mm512_add_epi32(w[i % 16], s0),
                    _mm512_add_epi32(w[(i + 9) % 16], s1),
                );
            }
            let s1 = xor3(
                _mm512_ror_epi32::<6>(e),
                _mm512_ror_epi32::<11>(e),
                _mm512_ror_epi32::<25>(e),
            );
            let ch = _mm512_ternarylogic_epi32::<CHOOSE>(e, f, g);
            let kw = _mm512_add_epi32(_mm512_set1_epi32(K[i] as i32), w[i % 16]);
            let t1 = _mm512_add_epi32(_mm512_add_epi32(h, s1), _mm512_add_epi32(ch, kw));
            let s0 = xor3(
                _mm512_ror_epi32::<2>(a),
                _mm512_ror_epi32::<13>(a),
                _mm512_ror_epi32::<22>(a),
            );
            let maj = _mm512_ternarylogic_epi32::<MAJORITY>(a, b, c);
            let t2 = _mm512_add_epi32(s0, maj);
            h = g;
            g = f;
            f = e;
            e = _mm512_add_epi32(d, t1);
            d = c;
            c = b;
            b = a;
            a = _mm512_add_epi32(t1, t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = _mm512_add_epi32(*s, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for chunk_size in [1, 3, 17, 63, 64, 65, 500] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk_size) {
                h.update(c);
            }
            assert_eq!(h.finalize(), digest(&data), "chunk {chunk_size}");
        }
    }

    /// Every kernel this CPU can run, with a notice for the one it
    /// cannot, so a log shows which paths a runner exercised.
    fn kernels() -> Vec<Kernel> {
        let mut all = vec![Kernel::Portable];
        match Kernel::detect() {
            Kernel::Portable => eprintln!("skipping the sha-ni kernel: this CPU lacks it"),
            fast => all.push(fast),
        }
        all
    }

    fn digest_on(kernel: Kernel, parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::with_kernel(kernel);
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    #[test]
    fn nist_vectors_through_every_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for kernel in kernels() {
            for (msg, want) in vectors {
                assert_eq!(hex(&digest_on(kernel, &[msg])), want, "{kernel:?}");
            }
        }
    }

    #[test]
    fn kernels_agree_on_every_length_and_every_two_part_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for kernel in kernels() {
            for len in 0..=data.len() {
                let msg = &data[..len];
                let want = digest_on(Kernel::Portable, &[msg]);
                for split in 0..=len {
                    let (a, b) = msg.split_at(split);
                    assert_eq!(
                        digest_on(kernel, &[a, b]),
                        want,
                        "{kernel:?} len {len} split {split}"
                    );
                }
            }
        }
    }

    /// The 16-lane kernel at every live count, on every padded length a
    /// PoC's spans take and the padding edges around them, each lane
    /// against the portable rounds. Lanes of one call share a padded
    /// length but not a length: the first lane takes the shortest of its
    /// range, the last the longest, and the others spread over it and
    /// move between rotations, so one lane's tail block is another's
    /// data and every lane meets both.
    #[test]
    fn wide_kernel_matches_portable_at_every_live_count() {
        let Some(wide) = Wide::detect() else {
            eprintln!("skipping the 16-lane kernel: this CPU lacks avx512f + avx512bw");
            return;
        };
        let data: Vec<u8> = (0..2000u32).map(|i| (i * 31 + 7) as u8).collect();
        for blocks in [1usize, 2, 3, 4, 7, 8] {
            let (lo, hi) = ((64 * blocks).saturating_sub(72), 64 * blocks - 9);
            for live in 1..=WIDE_LANES {
                for rotation in 0..4 {
                    let msgs: Vec<&[u8]> = (0..live)
                        .map(|l| {
                            let len = match l {
                                0 => lo,
                                _ if l + 1 == live => hi,
                                _ => lo + (37 * l + 11 * rotation) % (hi - lo + 1),
                            };
                            &data[l..l + len]
                        })
                        .collect();
                    let got = wide.digests(&msgs, blocks);
                    for (l, msg) in msgs.iter().enumerate() {
                        assert_eq!(padded_blocks(msg.len()), blocks);
                        assert_eq!(
                            got[l],
                            digest_on(Kernel::Portable, &[msg]),
                            "blocks {blocks} live {live} rotation {rotation} lane {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn digest_many_matches_digest_across_groups_and_call_sizes() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 13 + 1) as u8).collect();
        // One group too small for a wide call, one that fills a call and
        // spills a remainder below `MIN_WIDE`, one of two full calls, and
        // every length of the padding edges in between.
        let mut lens: Vec<usize> = vec![54, 55, 56, 63, 64, 119, 120];
        lens.extend((0..20).map(|i| 380 + i));
        lens.extend(std::iter::repeat_n(240, 32));
        lens.extend(0..3);
        let msgs: Vec<&[u8]> = lens
            .iter()
            .enumerate()
            .map(|(i, &n)| &data[i % 7..i % 7 + n])
            .collect();
        let want: Vec<_> = msgs.iter().map(|m| digest(m)).collect();
        assert_eq!(digest_many(&msgs), want);
        assert!(digest_many(&[]).is_empty());
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the padding boundary (55/56/64 bytes) are the
        // classic off-by-one zone for SHA implementations.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xa5u8; len];
            let mut h = Sha256::new();
            h.update(&data);
            let split = h.finalize();
            assert_eq!(split, digest(&data), "len {len}");
        }
    }
}
