//! Authenticated encryption: PRF keystream XOR + HMAC tag
//! (encrypt-then-MAC).
//!
//! Sections 6 and 7 of the paper encrypt and sign frames under shared
//! symmetric keys ("encrypted with the key shared by v and w", "encrypted
//! using key K"). [`SealedBox`] is that primitive: secrecy from the XOR
//! keystream, authenticity from the MAC — a spoofed or tampered frame fails
//! [`SealedBox::open`] and is discarded by honest receivers.

use crate::hmac::{verify_tag, HmacKey};
use crate::key::{Digest, SymmetricKey};
use crate::prf::Prf;

/// An encrypted, authenticated frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedBox {
    /// Public nonce (round number / epoch counter in the protocols).
    pub nonce: u64,
    /// XOR-encrypted payload.
    pub ciphertext: Vec<u8>,
    /// HMAC over `(nonce, ciphertext)` under the MAC subkey.
    pub tag: Digest,
}

/// XOR the keystream for `nonce` into `data` in place, one 32-byte PRF
/// block at a time.
fn apply_keystream(key: &SymmetricKey, nonce: u64, data: &mut [u8]) {
    let prf = Prf::new(key, b"secure-radio/stream");
    for (block, chunk) in (0u64..).zip(data.chunks_mut(32)) {
        let stream = prf.eval2(nonce, block);
        for (byte, s) in chunk.iter_mut().zip(stream.as_bytes()) {
            *byte ^= s;
        }
    }
}

/// The tag over `nonce || ciphertext`, under an independent subkey of
/// `key` (encrypt-then-MAC discipline).
fn tag(key: &SymmetricKey, nonce: u64, ciphertext: &[u8]) -> Digest {
    let subkey = Prf::new(key, b"secure-radio/mac-subkey").eval(0);
    HmacKey::new(subkey.as_bytes()).mac_parts(&[&nonce.to_be_bytes(), ciphertext])
}

impl SealedBox {
    /// Encrypt and authenticate `plaintext` under `key` with public `nonce`.
    ///
    /// Nonces must not repeat under one key for secrecy; the protocols use
    /// the (globally unique) round or epoch number. Sealing is
    /// deterministic in `(key, nonce, plaintext)`.
    pub fn seal(key: &SymmetricKey, nonce: u64, plaintext: &[u8]) -> Self {
        let mut ciphertext = plaintext.to_vec();
        apply_keystream(key, nonce, &mut ciphertext);
        SealedBox {
            nonce,
            tag: tag(key, nonce, &ciphertext),
            ciphertext,
        }
    }

    /// Verify and decrypt. Returns `None` when the tag does not verify
    /// (wrong key, tampered ciphertext, or forged frame).
    pub fn open(&self, key: &SymmetricKey) -> Option<Vec<u8>> {
        if !verify_tag(&tag(key, self.nonce, &self.ciphertext), &self.tag) {
            return None;
        }
        let mut plaintext = self.ciphertext.clone();
        apply_keystream(key, self.nonce, &mut plaintext);
        Some(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymmetricKey {
        SymmetricKey::from_bytes([b; 32])
    }

    #[test]
    fn roundtrip() {
        let k = key(1);
        for len in [0usize, 1, 31, 32, 33, 100] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let boxed = SealedBox::seal(&k, 7, &pt);
            assert_eq!(boxed.open(&k), Some(pt));
        }
    }

    /// The frame bytes are pinned: keystream blocks, subkey and tag as
    /// computed independently with Python's `hmac`/`hashlib`.
    #[test]
    fn seal_known_answer() {
        let plaintext: Vec<u8> = (0..40).collect();
        let boxed = SealedBox::seal(&key(1), 7, &plaintext);
        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        assert_eq!(
            hex(&boxed.ciphertext),
            "0cd0bd9f4cfc4fcae0f81daf03cfdbe49103861c21486e0a891d3d634acf50eca66b62b85ee5dcfa"
        );
        assert_eq!(
            boxed.tag.to_hex(),
            "e71735d765568be95d4bee7bf3e6bb302f432b7d3ebf2a3861e5e9a0dd319795"
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let boxed = SealedBox::seal(&key(1), 0, b"secret");
        assert_eq!(boxed.open(&key(2)), None);
    }

    #[test]
    fn tamper_rejected() {
        let mut boxed = SealedBox::seal(&key(1), 0, b"secret!");
        boxed.ciphertext[3] ^= 1;
        assert_eq!(boxed.open(&key(1)), None);
    }

    #[test]
    fn nonce_tamper_rejected() {
        let mut boxed = SealedBox::seal(&key(1), 5, b"secret!");
        boxed.nonce = 6;
        assert_eq!(boxed.open(&key(1)), None);
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let boxed = SealedBox::seal(&key(1), 0, b"attack at dawn");
        assert_ne!(&boxed.ciphertext[..], b"attack at dawn");
    }

    #[test]
    fn distinct_nonces_distinct_ciphertexts() {
        let a = SealedBox::seal(&key(1), 0, b"same plaintext");
        let b = SealedBox::seal(&key(1), 1, b"same plaintext");
        assert_ne!(a.ciphertext, b.ciphertext);
    }
}
