//! # sha256-ni
//!
//! One SHA-256 compression (FIPS 180-4 §6.2.2) on the x86-64 SHA
//! extensions ("SHA-NI"). [`compress`] folds one 64-byte block into an
//! 8-word chaining state and returns `true`; on a CPU without the
//! extensions (or off x86-64) it leaves the state untouched and returns
//! `false`, and the caller runs its portable loop instead. CPUID alone
//! decides: there is no option, feature flag or environment switch.
//!
//! The crate exists so that `radio-crypto` keeps `#![forbid(unsafe_code)]`.
//! Calling a `#[target_feature]` function is the one step here that safe
//! Rust has no checked form of, and this crate's single `unsafe` is that
//! call, made after `is_x86_feature_detected!` has confirmed every feature
//! the kernel is compiled with. The kernel itself is safe code: words go
//! in through `_mm_set_epi32` and come out through `_mm_extract_epi32`, so
//! it touches no raw pointers.
//!
//! ```rust
//! // The padded one-block message "abc" (FIPS 180-4, example B.1).
//! let mut block = [0u8; 64];
//! block[..4].copy_from_slice(b"abc\x80");
//! block[63] = 24; // message length in bits
//! let mut state = [
//!     0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
//!     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
//! ];
//! if sha256_ni::compress(&mut state, &block) {
//!     assert_eq!(state[0], 0xba7816bf);
//!     assert_eq!(state[7], 0xf20015ad);
//! }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// Compress `block` into `state` on SHA-NI.
///
/// Returns `true` when the hardware kernel ran. Returns `false`, with
/// `state` unchanged, when the CPU lacks any of the SHA, SSE2, SSSE3 or
/// SSE4.1 extensions the kernel needs.
pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `x86::compress` is safe code whose one precondition is
        // that the CPU implements the features it is compiled with
        // (`sha,sse2,ssse3,sse4.1`); the four run-time checks above have
        // just confirmed each of them.
        #[allow(unsafe_code)]
        unsafe {
            x86::compress(state, block);
        }
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (state, block);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Round constants (FIPS 180-4 §4.2.2).
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];

    /// Four consecutive 32-bit values as one vector, `v[0]` in lane 0.
    #[target_feature(enable = "sse2")]
    fn lanes(v: [u32; 4]) -> __m128i {
        _mm_set_epi32(v[3] as i32, v[2] as i32, v[1] as i32, v[0] as i32)
    }

    /// Message words `4q .. 4q + 4` of `block`, big-endian, word `4q` in
    /// lane 0.
    #[target_feature(enable = "sse2")]
    fn message(block: &[u8; 64], q: usize) -> __m128i {
        let word = |i: usize| {
            let at = 16 * q + 4 * i;
            u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
        };
        lanes([word(0), word(1), word(2), word(3)])
    }

    /// One compression, two rounds per `sha256rnds2`. The state lives in
    /// the layout that instruction works on: `(ABEF, CDGH)`, with A and C
    /// in lane 3.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let [a, b, c, d, e, f, g, h] = *state;
        let abef_in = lanes([f, e, b, a]);
        let cdgh_in = lanes([h, g, d, c]);
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);

        // Message schedule ring: `w[q % 4]` holds words `4q .. 4q + 4`.
        let mut w = [
            message(block, 0),
            message(block, 1),
            message(block, 2),
            message(block, 3),
        ];
        for q in 0..16 {
            if q >= 4 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four
                // words at a time from the previous four groups.
                let (w0, w1, w2, w3) = (w[q % 4], w[(q + 1) % 4], w[(q + 2) % 4], w[(q + 3) % 4]);
                let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
                w[q % 4] = _mm_sha256msg2_epu32(sum, w3);
            }
            let k = lanes([K[4 * q], K[4 * q + 1], K[4 * q + 2], K[4 * q + 3]]);
            let wk = _mm_add_epi32(w[q % 4], k);
            // Two rounds per instruction; each call returns the new ABEF,
            // and the old ABEF becomes the new CDGH.
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
        }

        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }
}
