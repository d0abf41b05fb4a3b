//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! SHA-256 is the workspace's byte hash. It names gossip messages
//! (`MessageId::compute`, SHA-256 over `topic ‖ 0 ‖ data`), binds the
//! simulated SNARK's proof to its public inputs (`SimSnark`'s binding
//! digest, so every proof and every verification hashes), maps a message
//! to its Shamir point `x = H(m)` ([`crate::poseidon::hash_bytes_to_field`],
//! two digests), derives domain constants, keys the validation pipeline's
//! verdict cache, derives `ethsim` addresses from labels, and is the
//! hashcash function of the Proof-of-Work baseline (the paper's
//! Whisper/EIP-627 comparator; we standardize on SHA-256 for it).
//!
//! The block compression has two implementations. On x86-64 CPUs with
//! the SHA extensions (SHA-NI, plus SSSE3 and SSE4.1) it runs on those
//! instructions; everywhere else it runs `compress_soft`, the portable
//! scalar code. The path is chosen on each call, and [`accelerated`]
//! says which one runs here. Both compute the same FIPS 180-4 function:
//! the differential test pins the kernel to the portable compress bit
//! for bit, and the NIST vectors and a padding table pin both. So no
//! digest — and so no message id, proof, report or golden hash — depends
//! on the host; only the time it takes does.
//!
//! # Examples
//!
//! ```
//! use wakurln_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//!
//! fn hex(bytes: &[u8]) -> String {
//!     bytes.iter().map(|b| format!("{b:02x}")).collect()
//! }
//! ```

use std::cell::Cell;

thread_local! {
    /// Number of 64-byte blocks compressed on this thread — the exact,
    /// host-independent unit of SHA-256 work ("how often was a frame
    /// hashed"), next to [`crate::poseidon::permutation_count`].
    static COMPRESSION_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Blocks compressed on this thread since process start (monotonic).
///
/// Diff two readings around a workload to count its hashing. Padding
/// adds 9 bytes, so a 55-byte input fits one block and a 56-byte input
/// needs two:
///
/// ```
/// use wakurln_crypto::sha256::{compression_count, Sha256};
///
/// let start = compression_count();
/// Sha256::digest(&[0u8; 55]);
/// let short = compression_count() - start;
/// Sha256::digest(&[0u8; 56]);
/// let long = compression_count() - start - short;
/// assert_eq!((short, long), (1, 2));
/// ```
pub fn compression_count() -> u64 {
    COMPRESSION_COUNT.with(|c| c.get())
}

/// Whether this host compresses on the CPU's SHA extensions (x86-64
/// SHA-NI with SSSE3 and SSE4.1) rather than on the portable compress.
///
/// Digests are the same either way; this only says which backend a
/// run's host timings measured.
pub fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        // One probe site for every feature `compress_sha_ni` enables
        // (SSE2 is part of the x86-64 baseline).
        macro_rules! detected {
            ($($feature:tt),+) => {
                // lint:allow(host-time, reason = "selects an implementation whose output the differential test pins bit for bit")
                $(std::arch::is_x86_feature_detected!($feature))&&+
            };
        }
        detected!("sha", "ssse3", "sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
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

/// Incremental SHA-256 hasher.
///
/// ```
/// use wakurln_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    /// Bytes pending in `buffer`; always below 64 between calls.
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress)
    }

    /// [`Sha256::update`] over a chosen block compression; full blocks
    /// are compressed straight from `data`.
    fn update_with(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8; 64])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            data = &data[take..];
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// [`Sha256::finalize`] over a chosen block compression: the pending
    /// bytes, `0x80`, zeros and the 64-bit big-endian bit length fill one
    /// block, or two when fewer than 9 bytes of the first are free.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> [u8; 32] {
        let len = self.buffer_len;
        let mut tail = [0u8; 128];
        tail[..len].copy_from_slice(&self.buffer[..len]);
        tail[len] = 0x80;
        let end = if len < 56 { 64 } else { 128 };
        tail[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        for block in tail[..end].as_chunks::<64>().0 {
            compress(&mut self.state, block);
        }
        let mut out = [0u8; 32];
        for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(self.state) {
            *bytes = word.to_be_bytes();
        }
        out
    }
}

/// Compresses one block into `state` on the fastest implementation this
/// CPU has, counting it in [`compression_count`].
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    COMPRESSION_COUNT.with(|c| c.set(c.get() + 1));
    #[cfg(target_arch = "x86_64")]
    if accelerated() {
        #[allow(unsafe_code)]
        // SAFETY: `compress_sha_ni` enables sha, sse2, ssse3 and sse4.1;
        // `accelerated()` has just confirmed that this CPU has sha, ssse3
        // and sse4.1, and sse2 is part of the x86-64 baseline.
        unsafe {
            compress_sha_ni(state, block)
        };
        return;
    }
    compress_soft(state, block);
}

/// The portable SHA-256 block compression: the fallback on CPUs without
/// the SHA extensions and the oracle the kernel is tested against.
fn compress_soft(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (slot, word) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *slot = u32::from_be_bytes(*word);
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

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-256 block compression on the x86 SHA extensions.
///
/// The state lives in two vectors, `abef` = (a, b, e, f) and `cdgh` =
/// (c, d, g, h), highest lane first — the layout `sha256rnds2` takes.
/// Each message vector holds four schedule words, word `4k + j` in
/// lane `j`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    let [a, b, c, d, e, f, g, h] = state.map(|x| x as i32);
    let abef_save = _mm_set_epi32(a, b, e, f);
    let cdgh_save = _mm_set_epi32(c, d, g, h);
    let (mut abef, mut cdgh) = (abef_save, cdgh_save);

    // The next four schedule words from the previous sixteen, oldest
    // first: W[t-16] + σ0(W[t-15]), then + W[t-7], then + σ1(W[t-2]).
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(
                    _mm_sha256msg1_epu32($w0, $w1),
                    _mm_alignr_epi8::<4>($w3, $w2),
                ),
                $w3,
            )
        };
    }
    // Rounds 4i..4i+4: two on the low half of W + K, two on the high
    // half, each `sha256rnds2` returning the new (a, b, e, f) while the
    // old one becomes (c, d, g, h).
    macro_rules! rounds4 {
        ($w:expr, $i:expr) => {
            let k = [K[4 * $i + 3], K[4 * $i + 2], K[4 * $i + 1], K[4 * $i]].map(|k| k as i32);
            let wk = _mm_add_epi32($w, _mm_set_epi32(k[0], k[1], k[2], k[3]));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        };
    }

    let mut words = [0i32; 16];
    for (word, bytes) in words.iter_mut().zip(block.as_chunks::<4>().0) {
        *word = u32::from_be_bytes(*bytes) as i32;
    }
    let [w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15] = words;
    let mut m0 = _mm_set_epi32(w3, w2, w1, w0);
    let mut m1 = _mm_set_epi32(w7, w6, w5, w4);
    let mut m2 = _mm_set_epi32(w11, w10, w9, w8);
    let mut m3 = _mm_set_epi32(w15, w14, w13, w12);

    rounds4!(m0, 0);
    rounds4!(m1, 1);
    rounds4!(m2, 2);
    rounds4!(m3, 3);
    for i in [4, 8, 12] {
        m0 = schedule!(m0, m1, m2, m3);
        rounds4!(m0, i);
        m1 = schedule!(m1, m2, m3, m0);
        rounds4!(m1, i + 1);
        m2 = schedule!(m2, m3, m0, m1);
        rounds4!(m2, i + 2);
        m3 = schedule!(m3, m0, m1, m2);
        rounds4!(m3, i + 3);
    }

    abef = _mm_add_epi32(abef, abef_save);
    cdgh = _mm_add_epi32(cdgh, cdgh_save);
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
    .map(|x| x as u32);
}

/// Convenience: hex-encode a digest (test/debug helper, also used by the
/// examples when printing identifiers).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use core::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `data`'s digest on the portable compress alone.
    fn digest_soft(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update_with(data, compress_soft);
        h.finalize_with(compress_soft)
    }

    /// `data`'s digest in hex, after checking that the live path (the
    /// kernel where the CPU has one) and the portable path agree on it.
    fn digest_both(data: &[u8]) -> String {
        let live = Sha256::digest(data);
        assert_eq!(
            live,
            digest_soft(data),
            "paths differ at {} bytes",
            data.len()
        );
        to_hex(&live)
    }

    /// One block through the kernel and through the portable compress,
    /// or `None` when this CPU has no kernel.
    fn kernel_and_soft(state: [u32; 8], block: &[u8; 64]) -> Option<([u32; 8], [u32; 8])> {
        if !accelerated() {
            return None;
        }
        let (mut kernel, mut soft) = (state, state);
        compress(&mut kernel, block);
        compress_soft(&mut soft, block);
        Some((kernel, soft))
    }

    #[test]
    fn kernel_matches_soft_on_edge_blocks() {
        // The portable half: H0 compressed with all-zero and all-0xff
        // blocks, as a separate implementation of the FIPS 180-4
        // compression computes them.
        let cases = [
            (
                [0u8; 64],
                [
                    0xda5698be, 0x17b9b469, 0x62335799, 0x779fbeca, 0x8ce5d491, 0xc0d26243,
                    0xbafef9ea, 0x1837a9d8,
                ],
            ),
            (
                [0xffu8; 64],
                [
                    0xef0c748d, 0xf4da50a8, 0xd6c43c01, 0x3edc3ce7, 0x6c9d9fa9, 0xa1458ade,
                    0x56eb86c0, 0xa64492d2,
                ],
            ),
        ];
        let mut kernel_ran = false;
        for (block, expected) in cases {
            let mut soft = H0;
            compress_soft(&mut soft, &block);
            assert_eq!(soft, expected);
            if let Some((kernel, soft)) = kernel_and_soft(H0, &block) {
                assert_eq!(kernel, soft);
                kernel_ran = true;
            }
        }
        println!(
            "sha256 differential: portable half ran, kernel half {}",
            if kernel_ran {
                "ran (SHA-NI)"
            } else {
                "skipped (no sha/ssse3/sse4.1 on this CPU)"
            }
        );
    }

    #[test]
    fn known_vector_empty() {
        assert_eq!(
            digest_both(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn known_vector_abc() {
        assert_eq!(
            digest_both(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn known_vector_two_blocks() {
        assert_eq!(
            digest_both(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn known_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            digest_both(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    /// Digests of bytes `0, 1, 2, …` at every length where the padding
    /// changes shape (made with coreutils `sha256sum`), and the block
    /// count the live path compresses for each.
    #[test]
    fn padding_lengths_match_sha256sum() {
        let table = "\
            0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855
            1 6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d
            55 463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59
            56 da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562
            57 2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f
            63 29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488
            64 fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108
            65 4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781
            119 da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6
            120 f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c
            127 92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976
            128 471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5
            129 5099c6a56203f9687f7d33f4bfdf576d31dc91f6b695ecea38b2770c87631135";
        for row in table.lines() {
            let (len, hex) = row.trim().split_once(' ').unwrap();
            let len: usize = len.parse().unwrap();
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(digest_both(&data), hex, "len={len}");
            let start = compression_count();
            Sha256::digest(&data);
            let blocks = compression_count() - start;
            assert_eq!(blocks, (len as u64 + 9).div_ceil(64), "len={len}");
        }
        let backend = if accelerated() { "SHA-NI" } else { "portable" };
        println!("sha256 live path: {backend}");
    }

    #[test]
    fn incremental_matches_oneshot_at_block_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn prop_kernel_matches_soft(state in any::<[u32; 8]>(), block in any::<[u8; 64]>()) {
            if let Some((kernel, soft)) = kernel_and_soft(state, &block) {
                prop_assert_eq!(kernel, soft);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                           split in 0usize..512) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Sha256::digest(&data));
        }

        #[test]
        fn prop_distinct_inputs_distinct_digests(a in proptest::collection::vec(any::<u8>(), 0..64),
                                                 b in proptest::collection::vec(any::<u8>(), 0..64)) {
            if a != b {
                prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
            }
        }
    }
}
