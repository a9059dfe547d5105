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
