//! HMAC-SHA-256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! [`HmacKey`] absorbs a key's inner and outer pad blocks once, so each
//! MAC under it costs only the compressions of the message itself plus
//! one for the outer hash: 2 for the 32-byte channel-hop input. Building
//! it is the whole per-key cost (2 compressions, one more for a key
//! longer than a block), paid once per key or rekey.

use std::fmt;

use crate::key::Digest;
use crate::sha256::{block_midstate, Sha256};

const BLOCK: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// HMAC-SHA-256 under one fixed key, held as the two keyed midstates:
/// the SHA-256 chaining states after the inner (`key ⊕ ipad`) and outer
/// (`key ⊕ opad`) pad blocks.
///
/// The midstates are key-equivalent (they MAC anything the key does), so
/// `Debug` shows neither them nor the key.
///
/// ```rust
/// use radio_crypto::hmac::{hmac_sha256, HmacKey};
/// let key = HmacKey::new(b"key");
/// let msg = b"The quick brown fox jumps over the lazy dog";
/// assert_eq!(key.mac(msg), hmac_sha256(b"key", msg));
/// // A message given in parts MACs like its concatenation.
/// let (head, tail) = msg.split_at(19);
/// assert_eq!(key.mac_parts(&[head, tail]), key.mac(msg));
/// ```
#[derive(Clone)]
pub struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Absorb `key`'s pad blocks. Keys longer than a block are hashed
    /// first (RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(Sha256::digest(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| key_block.map(|k| k ^ byte);
        HmacKey {
            inner: block_midstate(&pad(IPAD)),
            outer: block_midstate(&pad(OPAD)),
        }
    }

    /// `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> Digest {
        self.mac_parts(&[message])
    }

    /// `HMAC-SHA256(key, parts[0] || parts[1] || …)`, without
    /// concatenating the parts.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = Sha256::after_block(self.inner);
        for part in parts {
            inner.update(part);
        }
        let mut outer = Sha256::after_block(self.outer);
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Redacted on purpose: the midstates stand in for the key.
        f.write_str("HmacKey(redacted)")
    }
}

/// Compute `HMAC-SHA256(key, message)`.
///
/// ```rust
/// use radio_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     tag.to_hex(),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(message)
}

/// Constant-shape tag comparison.
///
/// Good hygiene even in a simulator: compares all bytes before deciding.
pub fn verify_tag(expected: &Digest, actual: &Digest) -> bool {
    let mut diff = 0u8;
    for (a, b) in expected.as_bytes().iter().zip(actual.as_bytes()) {
        diff |= a ^ b;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::SymmetricKey;
    use crate::prf::{ChannelHopper, Prf};
    use proptest::prelude::*;

    /// Two-pass HMAC straight from RFC 2104, re-hashing both pads on
    /// every call: the reference the keyed midstates must reproduce.
    fn reference_hmac(key: &[u8], message: &[u8]) -> Digest {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            let d = Sha256::digest(key);
            key_block[..32].copy_from_slice(d.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut pad = [0u8; BLOCK];
        for (p, b) in pad.iter_mut().zip(&key_block) {
            *p = b ^ IPAD;
        }
        let mut inner = Sha256::new();
        inner.update(&pad);
        inner.update(message);
        let inner_digest = inner.finalize();

        for (p, b) in pad.iter_mut().zip(&key_block) {
            *p = b ^ OPAD;
        }
        let mut outer = Sha256::new();
        outer.update(&pad);
        outer.update(inner_digest.as_bytes());
        outer.finalize()
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            tag.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            tag.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            tag.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 4 (25-byte counting key, 0xcd data).
    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=25).collect();
        let tag = hmac_sha256(&key, &[0xcd; 50]);
        assert_eq!(
            tag.to_hex(),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    /// RFC 4231 test case 5: the tag truncated to its first 16 bytes.
    #[test]
    fn rfc4231_case5_truncated() {
        let tag = hmac_sha256(&[0x0c; 20], b"Test With Truncation");
        assert_eq!(&tag.to_hex()[..32], "a3b6167473100ee06e0c796c2955552b");
    }

    /// RFC 4231 test case 6: key larger than one block.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            tag.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 4231 test case 7: key and data both larger than one block.
    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the \
              HMAC algorithm.",
        );
        assert_eq!(
            tag.to_hex(),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn tag_verification() {
        let a = hmac_sha256(b"k", b"m");
        let b = hmac_sha256(b"k", b"m");
        let c = hmac_sha256(b"k", b"m2");
        assert!(verify_tag(&a, &b));
        assert!(!verify_tag(&a, &c));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    /// No `Debug` on the keyed types shows the key bytes or a midstate
    /// word, in hex or decimal.
    #[test]
    fn debug_of_keyed_types_is_redacted() {
        let key = SymmetricKey::from_bytes([7; 32]);
        let midstates = HmacKey::new(key.as_bytes());
        let shown = [
            format!("{midstates:?}"),
            format!("{:?}", Prf::new(&key, b"label")),
            format!("{:?}", ChannelHopper::new(&key, 3)),
        ];
        for dbg in &shown {
            assert!(
                !dbg.contains("0707") && !dbg.contains("7, 7"),
                "raw key bytes leaked: {dbg}"
            );
            for word in midstates.inner.iter().chain(&midstates.outer) {
                assert!(
                    !dbg.contains(&word.to_string()) && !dbg.contains(&format!("{word:x}")),
                    "midstate word {word:#x} leaked: {dbg}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// Keyed midstates MAC like the two-pass reference, for keys on
        /// both sides of the 64-byte hash-the-key rule and messages split
        /// into parts anywhere.
        #[test]
        fn mac_parts_matches_two_pass_reference(
            key in proptest::collection::vec(any::<u8>(), 0..=200),
            message in proptest::collection::vec(any::<u8>(), 0..=300),
            cut_a in any::<usize>(),
            cut_b in any::<usize>(),
        ) {
            let cut_a = cut_a % (message.len() + 1);
            let cut_b = cut_a + cut_b % (message.len() - cut_a + 1);
            let (head, rest) = message.split_at(cut_a);
            let (mid, tail) = rest.split_at(cut_b - cut_a);
            let keyed = HmacKey::new(&key);
            let expected = reference_hmac(&key, &message);
            prop_assert_eq!(keyed.mac_parts(&[head, mid, tail]), expected);
            prop_assert_eq!(keyed.mac(&message), expected);
        }
    }
}
