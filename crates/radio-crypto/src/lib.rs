//! # radio-crypto
//!
//! Self-contained cryptographic substrate for the `secure-radio` workspace —
//! everything the protocols of Dolev, Gilbert, Guerraoui & Newport
//! (*Secure Communication Over Radio Channels*, PODC 2008) assume:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4), the paper's collision-resistant
//!   hash functions `H1`/`H2` (Section 5.6);
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104), used for message authentication in
//!   the group-key and long-lived protocols (Sections 6–7); an
//!   [`HmacKey`] absorbs a key once (2 compressions) so that every MAC
//!   under it pays only for its message;
//! * [`prf`] — a counter-mode PRF over HMAC, plus the pseudo-random
//!   **channel-hopping** sequence generator (Sections 6–7): build a
//!   [`ChannelHopper`] once per key, and each hop costs 2 compressions;
//! * [`dh`] — one-round Diffie–Hellman key exchange over a prime field
//!   (Section 6, Part 1);
//! * [`cipher`] — authenticated encryption (PRF keystream + HMAC tag) for
//!   the encrypted leader keys and the emulated secure channel
//!   (Sections 6–7);
//! * [`key`] — the shared key/digest value types the above exchange.
//!
//! ## Security disclaimer
//!
//! This crate is **simulation-grade**: the Diffie–Hellman group is a 61-bit
//! prime field so experiments run fast, and no constant-time discipline is
//! attempted. The *logic* is faithful (and SHA-256/HMAC match the official
//! test vectors), but do not use this crate to protect real traffic.
//!
//! Each SHA-256 compression runs on the `sha256-ni` crate's SHA-NI kernel
//! when CPUID reports the x86-64 SHA extensions, and on this crate's
//! scalar FIPS 180-4 loop otherwise. CPUID alone chooses, per call — there
//! is no option, feature or environment switch — and both kernels produce
//! the same bits, so no output depends on the host. The hardware call is
//! `sha256-ni`'s one `unsafe`; this crate forbids `unsafe` code.
//!
//! ## Example
//!
//! ```rust
//! use radio_crypto::dh::{DhConfig, KeyPair};
//! use radio_crypto::cipher::SealedBox;
//! use radio_crypto::key::SymmetricKey;
//!
//! // One-round key exchange: each side sends only its public key.
//! let cfg = DhConfig::default();
//! let alice = KeyPair::generate(&cfg, 7);
//! let bob = KeyPair::generate(&cfg, 8);
//! let k_ab = alice.shared_key(bob.public());
//! let k_ba = bob.shared_key(alice.public());
//! assert_eq!(k_ab, k_ba);
//!
//! // Authenticated encryption under the shared key.
//! let sealed = SealedBox::seal(&k_ab, 0, b"over the air");
//! assert_eq!(sealed.open(&k_ab).as_deref(), Some(&b"over the air"[..]));
//! let eve = SymmetricKey::from_bytes([9u8; 32]);
//! assert_eq!(sealed.open(&eve), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cipher;
pub mod dh;
pub mod hmac;
pub mod key;
pub mod prf;
pub mod sha256;

pub use cipher::SealedBox;
pub use dh::{DhConfig, KeyPair, PublicKey};
pub use hmac::HmacKey;
pub use key::{Digest, SymmetricKey};
pub use prf::{ChannelHopper, Prf};
pub use sha256::Sha256;
