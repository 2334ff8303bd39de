//! Long-lived service (Section 7): t-reliability, secrecy, authentication
//! — including a replay attacker that retransmits genuine old frames — and
//! the node's crypto caches (hopper per key, one seal per emulated round)
//! staying invisible across rekeys.

use std::collections::BTreeMap;

use fame::longlived::{run_longlived, session_nodes, LongLivedNode, ScriptEntry};
use fame::Params;
use proptest::prelude::*;
use radio_crypto::cipher::SealedBox;
use radio_crypto::key::SymmetricKey;
use radio_crypto::prf::ChannelHopper;
use radio_network::adversaries::{BusyChannelJammer, NoAdversary, RandomJammer};
use radio_network::{
    Action, Adversary, AdversaryAction, AdversaryView, ChannelId, Emission, NetworkConfig,
    Protocol, Reception, Simulation,
};

fn params() -> Params {
    Params::minimal(40, 2).unwrap()
}

fn group_key() -> SymmetricKey {
    SymmetricKey::from_bytes([0xAB; 32])
}

fn keys(p: &Params) -> Vec<Option<SymmetricKey>> {
    (0..p.n()).map(|_| Some(group_key())).collect()
}

fn script() -> Vec<ScriptEntry> {
    vec![
        ScriptEntry {
            eround: 0,
            sender: 2,
            message: b"alpha".to_vec(),
        },
        ScriptEntry {
            eround: 1,
            sender: 9,
            message: b"bravo".to_vec(),
        },
        ScriptEntry {
            eround: 2,
            sender: 2,
            message: b"charlie".to_vec(),
        },
        ScriptEntry {
            eround: 3,
            sender: 30,
            message: b"delta".to_vec(),
        },
    ]
}

#[test]
fn reliability_under_history_aware_jamming() {
    let p = params();
    let report = run_longlived(
        &p,
        &keys(&p),
        &script(),
        BusyChannelJammer::new(5, 12),
        51,
        false,
    )
    .unwrap();
    let holders = vec![true; p.n()];
    let rate = report.delivery_rate(&script(), &holders);
    assert!(rate > 0.999, "delivery {rate} under history-aware jamming");
}

/// An attacker that captures genuine sealed frames and replays them on
/// random channels in *later* emulated rounds. The nonce binding must make
/// every replay fall on deaf ears.
struct ReplayAdversary {
    captured: Vec<SealedBox>,
    rng: rand::rngs::SmallRng,
}

impl ReplayAdversary {
    fn new(seed: u64) -> Self {
        use rand::SeedableRng;
        ReplayAdversary {
            captured: Vec::new(),
            rng: rand::rngs::SmallRng::seed_from_u64(seed),
        }
    }
}

impl Adversary<SealedBox> for ReplayAdversary {
    fn act(
        &mut self,
        _round: u64,
        view: &AdversaryView<'_, SealedBox>,
    ) -> AdversaryAction<SealedBox> {
        use rand::Rng;
        // Capture everything transmitted in completed rounds.
        if let Some(rec) = view.trace.last() {
            for (_, _, frame) in rec.transmissions() {
                if self.captured.len() < 64 {
                    self.captured.push(frame.clone());
                }
            }
        }
        // Replay an old frame on a couple of random channels.
        let mut action = AdversaryAction::idle();
        let mut used = vec![false; view.channels];
        for _ in 0..view.budget {
            if let Some(frame) = self.captured.first().cloned() {
                let ch = self.rng.gen_range(0..view.channels);
                if !used[ch] {
                    used[ch] = true;
                    action.push(ChannelId(ch), Emission::Spoof(frame));
                }
            }
        }
        action
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

#[test]
fn replayed_frames_are_rejected() {
    let p = params();
    let report =
        run_longlived(&p, &keys(&p), &script(), ReplayAdversary::new(3), 53, false).unwrap();
    // Every accepted message must match the script entry for its slot —
    // a replay of slot-0's frame during slot 2 must not be accepted.
    for (node, log) in report.accepts.iter().enumerate() {
        for a in log {
            let genuine = script().iter().any(|s| a.matches(s));
            assert!(
                genuine,
                "node {node} accepted a replayed/forged frame at slot {}",
                a.eround
            );
        }
    }
}

#[test]
fn wrong_key_cannot_forge() {
    let p = params();
    let eve_key = SymmetricKey::from_bytes([0xEE; 32]);
    let spoofer = radio_network::adversaries::Spoofer::new(7, move |round, _ch| {
        SealedBox::seal(&eve_key, round / 67, b"\x00\x00\x00\x02EVE SAYS HI")
    });
    let report = run_longlived(&p, &keys(&p), &script(), spoofer, 57, false).unwrap();
    for log in &report.accepts {
        for a in log {
            assert!(
                !a.message.windows(3).any(|w| w == b"EVE"),
                "forged content accepted"
            );
        }
    }
}

/// Jams one random channel and spoofs another every round: the spoof
/// alternates between a replay of the latest genuine frame seen on the
/// air and a frame forged under the wrong key with the current nonce.
struct JamAndSpoof {
    latest: Option<SealedBox>,
    eve: SymmetricKey,
    epoch_len: u64,
    rng: rand::rngs::SmallRng,
}

impl Adversary<SealedBox> for JamAndSpoof {
    fn act(
        &mut self,
        round: u64,
        view: &AdversaryView<'_, SealedBox>,
    ) -> AdversaryAction<SealedBox> {
        use rand::Rng;
        if let Some(rec) = view.trace.last() {
            if let Some((_, _, frame)) = rec.transmissions().next() {
                self.latest = Some(frame.clone());
            }
        }
        let jam = self.rng.gen_range(0..view.channels);
        let spoof = (jam + self.rng.gen_range(1..view.channels)) % view.channels;
        let forged = SealedBox::seal(&self.eve, round / self.epoch_len, b"\x00\x00\x00\x02EVE");
        let frame = match &self.latest {
            Some(genuine) if round.is_multiple_of(2) => genuine.clone(),
            _ => forged,
        };
        let mut action = AdversaryAction::jam([ChannelId(jam)]);
        action.push(ChannelId(spoof), Emission::Spoof(frame));
        action
    }

    fn name(&self) -> &'static str {
        "jam-and-spoof"
    }
}

#[test]
fn jammed_and_spoofed_logs_are_ordered_and_scripted() {
    use rand::SeedableRng;
    let p = params();
    // Emulated rounds 1 and 4 carry no broadcast, so replayed frames land
    // on a listening group and must be turned away by the nonce binding.
    let script: Vec<ScriptEntry> = [
        (0, 2, "alpha"),
        (2, 9, "bravo"),
        (3, 2, "charlie"),
        (5, 30, "delta"),
    ]
    .into_iter()
    .map(|(eround, sender, message)| ScriptEntry {
        eround,
        sender,
        message: message.as_bytes().to_vec(),
    })
    .collect();
    let adversary = JamAndSpoof {
        latest: None,
        eve: SymmetricKey::from_bytes([0xEE; 32]),
        epoch_len: p.epoch_rounds(),
        rng: rand::rngs::SmallRng::seed_from_u64(65),
    };
    let report = run_longlived(&p, &keys(&p), &script, adversary, 67, false).unwrap();
    assert!(
        report.stats.spoofs_delivered > 0,
        "the spoofs must actually reach listeners"
    );
    for (node, log) in report.accepts.iter().enumerate() {
        assert!(
            log.windows(2).all(|w| w[0].eround < w[1].eround),
            "node {node}: log not strictly increasing in emulated round: {log:?}"
        );
        for a in log {
            assert!(
                script.iter().any(|s| a.matches(s)),
                "node {node} accepted an unscripted broadcast: {a:?}"
            );
        }
    }
    let holders = vec![true; p.n()];
    let rate = report.delivery_rate(&script, &holders);
    assert!(rate > 0.99, "delivery {rate} under jamming and spoofing");
}

#[test]
fn mixed_key_population_isolated() {
    // Nodes 0 and 1 missed the key (the <= t excluded nodes).
    let p = params();
    let mut ks = keys(&p);
    ks[0] = None;
    ks[1] = None;
    let report = run_longlived(&p, &ks, &script(), RandomJammer::new(5), 59, false).unwrap();
    assert!(report.accepts[0].is_empty());
    assert!(report.accepts[1].is_empty());
    // Everyone else still gets everything.
    let holders: Vec<bool> = ks.iter().map(Option::is_some).collect();
    assert!(report.delivery_rate(&script(), &holders) > 0.999);
}

#[test]
fn emulated_round_cost_matches_params() {
    let p = params();
    let report = run_longlived(&p, &keys(&p), &script(), NoAdversary, 61, false).unwrap();
    assert_eq!(report.rounds, 4 * p.epoch_rounds());
    assert_eq!(report.epoch_len, p.epoch_rounds());
}

#[test]
fn wide_band_halves_latency() {
    let t = 2;
    let n = Params::min_nodes(t, 2 * t).max(48);
    let minimal = Params::new(n, t, t + 1).unwrap();
    let wide = Params::new(n, t, 2 * t).unwrap();
    assert!(
        wide.epoch_rounds() < minimal.epoch_rounds(),
        "C >= 2t should cut the per-message cost: {} !< {}",
        wide.epoch_rounds(),
        minimal.epoch_rounds()
    );
    let ks: Vec<Option<SymmetricKey>> = (0..n).map(|_| Some(group_key())).collect();
    let report = run_longlived(&wide, &ks, &script(), RandomJammer::new(5), 63, false).unwrap();
    let holders = vec![true; n];
    assert!(report.delivery_rate(&script(), &holders) > 0.999);
}

/// A `LongLivedNode` under audit: every `begin_round` is compared with
/// what a fresh `ChannelHopper` and a fresh `SealedBox::seal` under the
/// key in force would produce, so the node's cached hopper and cached
/// frame can never show.
struct Audited {
    node: LongLivedNode,
    id: usize,
    /// Key in force from each emulated round on (`0` = the initial key);
    /// empty for a node outside the keyed group.
    keys: BTreeMap<u64, SymmetricKey>,
    /// My scripted broadcasts: emulated round -> message.
    script: BTreeMap<u64, Vec<u8>>,
    channels: usize,
    epoch_len: u64,
    mismatches: Vec<String>,
}

impl Protocol for Audited {
    type Msg = SealedBox;

    fn begin_round(&mut self, round: u64) -> Action<SealedBox> {
        let action = self.node.begin_round(round);
        let e = round / self.epoch_len;
        let Some((_, key)) = self.keys.range(..=e).next_back() else {
            if !matches!(action, Action::Sleep) {
                self.mismatches
                    .push(format!("unkeyed node {} woke in round {round}", self.id));
            }
            return action;
        };
        let channel = ChannelId(ChannelHopper::new(key, self.channels).channel_for(round));
        let expected = match self.script.get(&e) {
            Some(message) => {
                let mut plaintext = (self.id as u32).to_be_bytes().to_vec();
                plaintext.extend_from_slice(&e.to_be_bytes());
                plaintext.extend_from_slice(message);
                Action::Transmit {
                    channel,
                    frame: SealedBox::seal(key, e, &plaintext),
                }
            }
            None => Action::Listen { channel },
        };
        if action != expected {
            self.mismatches.push(format!(
                "node {} round {round} (emulated {e}): got {action:?}, want {expected:?}",
                self.id
            ));
        }
        action
    }

    fn end_round(&mut self, round: u64, reception: Option<Reception<&SealedBox>>) {
        self.node.end_round(round, reception);
    }

    fn is_done(&self) -> bool {
        self.node.is_done()
    }

    fn next_wake(&self, round: u64) -> u64 {
        self.node.next_wake(round)
    }
}

proptest! {
    /// Over random shapes, scripts, rekey schedules and jammer seeds, a
    /// node's cached hopper and cached frame are invisible: every round's
    /// channel and frame equal a fresh hop and a fresh seal under the key
    /// in force. Each case also pins one node broadcasting in the
    /// emulated rounds just before and at a rekey, with the same message
    /// both times, so a frame cache keyed on anything but its nonce, or a
    /// hopper kept across a rekey, is caught.
    #[test]
    fn node_caches_are_invisible_across_rekeys(
        seed in any::<u64>(),
        channels in 2usize..=3,
        slots in proptest::collection::vec(
            (
                proptest::option::of((any::<usize>(), proptest::collection::vec(any::<u8>(), 0..20))),
                proptest::option::of(any::<[u8; 32]>()),
            ),
            3..=5,
        ),
        pivot in any::<u64>(),
        repeat in (any::<usize>(), proptest::collection::vec(any::<u8>(), 0..20), any::<[u8; 32]>()),
        unkeyed in any::<usize>(),
        via_with_rekeys in any::<bool>(),
    ) {
        let p = Params::new(Params::min_nodes(1, channels), 1, channels).unwrap();
        let n = p.n();
        let initial = SymmetricKey::from_bytes([0x5A; 32]);
        let mut keys = vec![Some(initial); n];
        keys[unkeyed % n] = None;
        let keyed: Vec<usize> = (0..n).filter(|&v| keys[v].is_some()).collect();

        let erounds = slots.len() as u64;
        let mut script: BTreeMap<u64, (usize, Vec<u8>)> = BTreeMap::new();
        let mut rekeys: BTreeMap<u64, SymmetricKey> = BTreeMap::new();
        for (e, (broadcast, rekey)) in (0u64..).zip(slots) {
            if let Some((sender, message)) = broadcast {
                script.insert(e, (keyed[sender % keyed.len()], message));
            }
            if let (Some(bytes), true) = (rekey, e > 0) {
                rekeys.insert(e, SymmetricKey::from_bytes(bytes));
            }
        }
        let (sender, message, rekey) = repeat;
        let at = 1 + pivot % (erounds - 1);
        let sender = keyed[sender % keyed.len()];
        script.insert(at - 1, (sender, message.clone()));
        script.insert(at, (sender, message));
        rekeys.insert(at, SymmetricKey::from_bytes(rekey));

        let entries: Vec<ScriptEntry> = script
            .iter()
            .map(|(&eround, (sender, message))| ScriptEntry {
                eround,
                sender: *sender,
                message: message.clone(),
            })
            .collect();
        let schedule: Vec<(u64, SymmetricKey)> = rekeys.iter().map(|(&e, &k)| (e, k)).collect();
        let scripts: Vec<BTreeMap<u64, Vec<u8>>> = (0..n)
            .map(|v| {
                script
                    .iter()
                    .filter(|(_, (s, _))| *s == v)
                    .map(|(&e, (_, m))| (e, m.clone()))
                    .collect()
            })
            .collect();
        let nodes: Vec<LongLivedNode> = if via_with_rekeys {
            (0..n)
                .map(|v| {
                    let node = LongLivedNode::new(v, p.clone(), keys[v], scripts[v].clone(), erounds);
                    if keys[v].is_some() {
                        node.with_rekeys(rekeys.clone())
                    } else {
                        node
                    }
                })
                .collect()
        } else {
            session_nodes(&p, &keys, &entries, &schedule, erounds)
        };
        let audited: Vec<Audited> = nodes
            .into_iter()
            .zip(scripts)
            .enumerate()
            .map(|(v, (node, script))| {
                let mut in_force = BTreeMap::new();
                if let Some(k) = keys[v] {
                    in_force.insert(0, k);
                    in_force.extend(rekeys.iter().map(|(&e, &k)| (e, k)));
                }
                Audited {
                    node,
                    id: v,
                    keys: in_force,
                    script,
                    channels,
                    epoch_len: p.epoch_rounds(),
                    mismatches: Vec::new(),
                }
            })
            .collect();

        let cfg = NetworkConfig::new(p.c(), p.t()).unwrap();
        let mut sim = Simulation::new(cfg, audited, RandomJammer::new(seed), seed).unwrap();
        let report = sim.run(erounds * p.epoch_rounds() + 2).unwrap();
        prop_assert_eq!(report.rounds, erounds * p.epoch_rounds());
        for node in sim.nodes() {
            prop_assert!(node.mismatches.is_empty(), "{}", node.mismatches.join("\n"));
        }
    }
}
