//! Counter-mode PRF and the pseudo-random channel-hopping generator.
//!
//! Sections 6 and 7 of the paper derive an adversary-unpredictable
//! channel-hopping pattern from a shared secret: in each round the
//! communicating pair (or whole group) tunes to `PRF(key, round) mod C`.
//! Because the adversary lacks the key, every round it can do no better than
//! guessing which `t` of the `C` channels to jam.

use crate::hmac::HmacKey;
use crate::key::{Digest, SymmetricKey};

/// A keyed pseudo-random function `F(key, label, counter) -> 32 bytes`,
/// instantiated as `HMAC-SHA256(key, label || counter_be)`.
///
/// The `label` domain-separates independent uses of the same key (hopping
/// vs. keystream vs. key derivation). The key is held as its HMAC
/// midstates ([`HmacKey`]), so building a `Prf` costs 2 compressions and
/// each evaluation 2 more (for every label in this workspace: label and
/// counters fit one block).
#[derive(Clone, Debug)]
pub struct Prf {
    key: HmacKey,
    label: &'static [u8],
}

impl Prf {
    /// A PRF under `key` with domain-separation `label`.
    pub fn new(key: &SymmetricKey, label: &'static [u8]) -> Self {
        Prf {
            key: HmacKey::new(key.as_bytes()),
            label,
        }
    }

    /// Evaluate at `counter`.
    pub fn eval(&self, counter: u64) -> Digest {
        self.key.mac_parts(&[self.label, &counter.to_be_bytes()])
    }

    /// Evaluate at `(counter, tweak)` — two-dimensional inputs.
    pub fn eval2(&self, counter: u64, tweak: u64) -> Digest {
        self.key
            .mac_parts(&[self.label, &counter.to_be_bytes(), &tweak.to_be_bytes()])
    }
}

/// The channel-hopping sequence shared by everyone who knows `key`.
///
/// Build one per key and keep it: [`ChannelHopper::new`] absorbs the key
/// (2 compressions) and each [`ChannelHopper::channel_for`] then costs 2
/// compressions per rejection-sampling attempt.
///
/// ```rust
/// use radio_crypto::{ChannelHopper, key::SymmetricKey};
/// let key = SymmetricKey::from_bytes([1u8; 32]);
/// let hopper = ChannelHopper::new(&key, 4);
/// // Both endpoints compute the same channel for round 17:
/// assert_eq!(hopper.channel_for(17), ChannelHopper::new(&key, 4).channel_for(17));
/// assert!(hopper.channel_for(17) < 4);
/// ```
#[derive(Clone, Debug)]
pub struct ChannelHopper {
    prf: Prf,
    channels: usize,
}

impl ChannelHopper {
    /// A hopping sequence over `channels` channels keyed by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`.
    pub fn new(key: &SymmetricKey, channels: usize) -> Self {
        assert!(channels > 0, "hopping needs at least one channel");
        ChannelHopper {
            prf: Prf::new(key, b"secure-radio/hop"),
            channels,
        }
    }

    /// The channel index for round `round`, in `0..channels`.
    ///
    /// Uses rejection sampling to avoid modulo bias (irrelevant for secrecy
    /// here, but it keeps the per-channel load exactly uniform, which the
    /// delivery-probability experiments rely on).
    pub fn channel_for(&self, round: u64) -> usize {
        let c = self.channels as u128;
        let zone = (u128::MAX / c) * c;
        let mut attempt = 0u64;
        loop {
            let d = self.prf.eval2(round, attempt);
            let x = u128::from_be_bytes(d.as_bytes()[..16].try_into().expect("16 bytes"));
            if x < zone {
                return (x % c) as usize;
            }
            attempt += 1;
        }
    }

    /// Number of channels hopped over.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> SymmetricKey {
        SymmetricKey::from_bytes([b; 32])
    }

    #[test]
    fn prf_is_deterministic_and_label_separated() {
        let p1 = Prf::new(&key(1), b"a");
        let p2 = Prf::new(&key(1), b"b");
        assert_eq!(p1.eval(5), p1.eval(5));
        assert_ne!(p1.eval(5), p2.eval(5));
        assert_ne!(p1.eval(5), p1.eval(6));
        assert_ne!(p1.eval2(5, 0), p1.eval2(5, 1));
    }

    #[test]
    fn hopper_is_shared_knowledge() {
        let a = ChannelHopper::new(&key(3), 7);
        let b = ChannelHopper::new(&key(3), 7);
        for round in 0..100 {
            assert_eq!(a.channel_for(round), b.channel_for(round));
        }
    }

    /// The hop sequence is pinned: `HMAC(key, "secure-radio/hop" ||
    /// round || attempt)` with rejection sampling, computed independently
    /// with Python's `hmac`/`hashlib`.
    #[test]
    fn hopper_known_answer() {
        let hopper = ChannelHopper::new(&key(1), 4);
        let channels: Vec<usize> = (0..16).map(|r| hopper.channel_for(r)).collect();
        assert_eq!(channels, [1, 1, 1, 3, 1, 1, 0, 3, 1, 1, 1, 0, 1, 0, 0, 3]);
    }

    #[test]
    fn hopper_differs_across_keys() {
        let a = ChannelHopper::new(&key(3), 16);
        let b = ChannelHopper::new(&key(4), 16);
        let same = (0..64)
            .filter(|&r| a.channel_for(r) == b.channel_for(r))
            .count();
        assert!(
            same < 16,
            "sequences should look independent, {same}/64 equal"
        );
    }

    #[test]
    fn hopper_is_roughly_uniform() {
        let hopper = ChannelHopper::new(&key(9), 5);
        let mut counts = [0u32; 5];
        let rounds = 5_000;
        for r in 0..rounds {
            counts[hopper.channel_for(r)] += 1;
        }
        let expected = rounds as f64 / 5.0;
        for (ch, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.15, "channel {ch} count {c} deviates {dev:.2}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = ChannelHopper::new(&key(0), 0);
    }
}
