//! The long-lived secure communication service (Section 7).
//!
//! Once a group key `K` is established (Section 6), the nodes emulate a
//! reliable, secret, authenticated broadcast channel:
//!
//! * the whole group hops channels following `PRF(K, round)` — unknowable
//!   to the adversary, which therefore blocks any given round with
//!   probability at most `t/C`;
//! * one emulated round spans `Θ(t·log n)` physical rounds (`O(log n)`
//!   once `C ≥ 2t`); the emulated broadcaster repeats its message,
//!   encrypted and MACed under `K`, for the whole span;
//! * receivers accept a frame only if the MAC verifies and the embedded
//!   emulated-round number matches — spoofed or replayed frames are
//!   rejected.
//!
//! Guarantees (w.h.p.): **t-Reliability** (all key holders hear the
//! broadcast), **Secrecy** (frames are ciphertext), **Authentication**
//! (accepted frames were sent by a key holder in this emulated round).

use std::collections::BTreeMap;

use radio_crypto::cipher::SealedBox;
use radio_crypto::key::SymmetricKey;
use radio_crypto::prf::ChannelHopper;

use radio_network::{
    Action, Adversary, ChannelId, EngineError, NetworkConfig, Protocol, Reception, Simulation,
    Stats, Trace, TraceRetention, TraceSink,
};

use crate::Params;

/// One scripted broadcast: at emulated round `eround`, node `sender`
/// broadcasts `message`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScriptEntry {
    /// Emulated round index.
    pub eround: u64,
    /// Broadcasting node.
    pub sender: usize,
    /// Plaintext message.
    pub message: Vec<u8>,
}

fn encode(sender: usize, eround: u64, message: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + message.len());
    out.extend_from_slice(&(sender as u32).to_be_bytes());
    out.extend_from_slice(&eround.to_be_bytes());
    out.extend_from_slice(message);
    out
}

/// Split an opened frame into `(sender, eround, message)`, reusing the
/// plaintext's buffer for the message.
fn decode(mut bytes: Vec<u8>) -> Option<(usize, u64, Vec<u8>)> {
    if bytes.len() < 12 {
        return None;
    }
    let sender = u32::from_be_bytes(bytes[0..4].try_into().ok()?) as usize;
    let eround = u64::from_be_bytes(bytes[4..12].try_into().ok()?);
    bytes.drain(..12);
    Some((sender, eround, bytes))
}

/// One accepted broadcast, as the accepting node logged it: which
/// physical `round` the frame landed in, which emulated round it
/// belonged to, who sent it, and what it said. The physical round is
/// what delivery *latency* means for a long-lived session — rounds
/// elapsed between the start of the emulated round (`eround *
/// epoch_len`) and acceptance.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Accept {
    /// Physical round the frame was accepted in.
    pub round: u64,
    /// Emulated round the broadcast belonged to.
    pub eround: u64,
    /// Broadcasting node.
    pub sender: usize,
    /// The accepted plaintext message.
    pub message: Vec<u8>,
}

impl Accept {
    /// `true` when this acceptance is exactly the scripted broadcast
    /// `entry`: same emulated round, sender, and message.
    pub fn matches(&self, entry: &ScriptEntry) -> bool {
        self.eround == entry.eround && self.sender == entry.sender && self.message == entry.message
    }
}

/// A participant in the emulated channel.
///
/// A keyed node caches the crypto that repeats: the [`ChannelHopper`] of
/// its current key, built on its first keyed round and again after each
/// rekey, and the frame it broadcasts, sealed once per emulated round.
/// Neither cache is visible: every round hops and transmits exactly what
/// a fresh hopper and a fresh seal under the current key would.
#[derive(Clone, Debug)]
pub struct LongLivedNode {
    id: usize,
    params: Params,
    key: Option<SymmetricKey>,
    /// My scripted broadcasts: emulated round -> message.
    script: BTreeMap<u64, Vec<u8>>,
    /// Scheduled key rotations `(from emulated round, new group key)`,
    /// in descending order so the next one due is popped off the end.
    rekeys: Vec<(u64, SymmetricKey)>,
    /// The hop sequence of `key`; `None` until the next keyed round
    /// builds it.
    hopper: Option<ChannelHopper>,
    /// My last sealed broadcast. Its nonce is its emulated round, so a
    /// frame from an earlier emulated round (or key) is stale by nonce.
    frame: Option<SealedBox>,
    epoch_len: u64,
    emulated_rounds: u64,
    /// Acceptance log, one entry per accepted broadcast, strictly
    /// increasing in emulated round (at most one acceptance per emulated
    /// round). Pre-sized to the session horizon so pushes never
    /// reallocate.
    accepts: Vec<Accept>,
    round: u64,
}

impl LongLivedNode {
    /// Build node `id`; `key` is `None` for nodes outside the keyed group
    /// (the ≤ t nodes the setup could not reach).
    pub fn new(
        id: usize,
        params: Params,
        key: Option<SymmetricKey>,
        script: BTreeMap<u64, Vec<u8>>,
        emulated_rounds: u64,
    ) -> Self {
        LongLivedNode {
            id,
            epoch_len: params.epoch_rounds(),
            params,
            key,
            script,
            rekeys: Vec::new(),
            hopper: None,
            frame: None,
            emulated_rounds,
            accepts: Vec::with_capacity(emulated_rounds as usize),
            round: 0,
        }
    }

    /// Schedule key rotations: at the start of each emulated round named
    /// in `rekeys`, the node switches to that key for hopping, sealing,
    /// and opening. Every keyed node in a session must carry the same
    /// schedule (the model's out-of-band re-agreement, e.g. a Section 6
    /// re-run); nodes outside the keyed group ignore it.
    #[must_use]
    pub fn with_rekeys(mut self, rekeys: BTreeMap<u64, SymmetricKey>) -> Self {
        self.rekeys = rekeys.into_iter().rev().collect();
        self
    }

    /// The acceptance log (see [`Accept`]), ordered by emulated round.
    /// Grows by at most one entry per emulated round; the gateway drains
    /// it incrementally with a cursor to build per-session delivery
    /// transcripts.
    pub fn accepts(&self) -> &[Accept] {
        &self.accepts
    }

    fn current_eround(&self) -> u64 {
        self.round / self.epoch_len
    }
}

impl Protocol for LongLivedNode {
    type Msg = SealedBox;

    fn begin_round(&mut self, round: u64) -> Action<SealedBox> {
        // Track the driver's round directly: a node that slept through a
        // stretch of rounds (see `next_wake`) resumes at the right epoch.
        self.round = round;
        if self.is_done() {
            return Action::Sleep;
        }
        let e = self.current_eround();
        // Key rotation: apply every scheduled rekey due at or before this
        // emulated round. All keyed nodes carry the same schedule, so the
        // whole group switches hop sequence and sealing key in lockstep
        // at the epoch boundary. Popping the schedule never allocates,
        // and the next keyed round rebuilds the hopper in place.
        while let Some(&(_, key)) = self.rekeys.last().filter(|(at, _)| *at <= e) {
            self.rekeys.pop();
            self.key = Some(key);
            self.hopper = None;
        }
        let Some(key) = &self.key else {
            return Action::Sleep; // outside the keyed group
        };
        let channels = self.params.c();
        let hopper = self
            .hopper
            .get_or_insert_with(|| ChannelHopper::new(key, channels));
        let channel = ChannelId(hopper.channel_for(round));
        let Some(message) = self.script.get(&e) else {
            return Action::Listen { channel };
        };
        // One seal per emulated round: sealing is deterministic in
        // `(key, e, plaintext)` and the key changes only at emulated-round
        // boundaries, so the frame sealed under nonce `e` is the frame for
        // every physical round of `e`.
        let frame = match &self.frame {
            Some(frame) if frame.nonce == e => frame.clone(),
            _ => self
                .frame
                .insert(SealedBox::seal(key, e, &encode(self.id, e, message)))
                .clone(),
        };
        Action::Transmit { channel, frame }
    }

    fn end_round(&mut self, round: u64, reception: Option<Reception<&SealedBox>>) {
        let e = self.current_eround();
        // The log is ordered by emulated round, so "already accepted this
        // emulated round" is a check on its last entry — the cheapest
        // test, run before any MAC or decryption work.
        let accepted = self.accepts.last().is_some_and(|a| a.eround == e);
        if let (
            false,
            Some(key),
            Some(Reception {
                frame: Some(sealed),
                ..
            }),
        ) = (accepted, &self.key, &reception)
        {
            // Authentication: MAC must verify under K *and* the frame must
            // belong to this emulated round (nonce binding stops replays).
            if sealed.nonce == e {
                if let Some((sender, eround, message)) = sealed.open(key).and_then(decode) {
                    if eround == e {
                        self.accepts.push(Accept {
                            round,
                            eround: e,
                            sender,
                            message,
                        });
                    }
                }
            }
        }
        self.round = round + 1;
    }

    fn is_done(&self) -> bool {
        self.round >= self.emulated_rounds * self.epoch_len
    }

    fn next_wake(&self, round: u64) -> u64 {
        if self.is_done() {
            return radio_network::NEVER;
        }
        if self.key.is_none() {
            // Unkeyed nodes never transmit or listen; sleep until the
            // session's last round so `is_done` flips in lockstep with
            // the keyed group and the run length stays unchanged.
            let total = self.emulated_rounds * self.epoch_len;
            return total.saturating_sub(1).max(round + 1);
        }
        round + 1
    }
}

/// Outcome of a long-lived session.
#[derive(Clone, Debug)]
pub struct LongLivedReport {
    /// Per node: the acceptance log, ordered by emulated round (see
    /// [`LongLivedNode::accepts`]).
    pub accepts: Vec<Vec<Accept>>,
    /// Physical rounds executed.
    pub rounds: u64,
    /// Physical rounds per emulated round.
    pub epoch_len: u64,
    /// Network statistics.
    pub stats: Stats,
    /// Full trace (for secrecy audits) when requested.
    pub trace: Option<Trace<SealedBox>>,
}

impl LongLivedReport {
    /// Delivery rate of `script` among the key-holding listeners: for each
    /// scripted broadcast, the fraction of other key holders that accepted
    /// exactly `(sender, message)` at that emulated round.
    pub fn delivery_rate(&self, script: &[ScriptEntry], holders: &[bool]) -> f64 {
        let mut ok = 0usize;
        let mut all = 0usize;
        for entry in script {
            for (node, log) in self.accepts.iter().enumerate() {
                if node == entry.sender || !holders[node] {
                    continue;
                }
                all += 1;
                if log.iter().any(|a| a.matches(entry)) {
                    ok += 1;
                }
            }
        }
        if all == 0 {
            1.0
        } else {
            ok as f64 / all as f64
        }
    }
}

/// Run a long-lived session.
///
/// `keys[v]` is node `v`'s group key (or `None`); `script` lists the
/// broadcasts. One emulated round costs [`Params::epoch_rounds`] physical
/// rounds.
///
/// # Errors
///
/// Propagates engine failures; panics on scripts that reference unkeyed
/// senders (a configuration bug, mirrored by an assert).
pub fn run_longlived<A>(
    params: &Params,
    keys: &[Option<SymmetricKey>],
    script: &[ScriptEntry],
    adversary: A,
    seed: u64,
    keep_trace: bool,
) -> Result<LongLivedReport, EngineError>
where
    A: Adversary<SealedBox>,
{
    run_longlived_inner(params, keys, script, adversary, seed, keep_trace, None)
}

/// Like [`run_longlived`] but showing every finished round to `sink`
/// (e.g. a [`ChannelSink`](radio_network::ChannelSink) streaming the
/// trace to a file). The network still retains the
/// `TraceRetention::LastRounds(`[`LONGLIVED_TRACE_WINDOW`]`)` history of
/// a `keep_trace = false` run and the sink only observes, so trace-mining
/// adversaries see the same past and the execution is bit-identical to
/// [`run_longlived`]'s. The report's `trace` field is `None` — the stream
/// is the product.
///
/// # Errors
///
/// Same as [`run_longlived`].
pub fn run_longlived_streaming<A>(
    params: &Params,
    keys: &[Option<SymmetricKey>],
    script: &[ScriptEntry],
    adversary: A,
    seed: u64,
    sink: Box<dyn TraceSink<SealedBox>>,
) -> Result<LongLivedReport, EngineError>
where
    A: Adversary<SealedBox>,
{
    run_longlived_inner(params, keys, script, adversary, seed, false, Some(sink))
}

/// The in-memory history window a non-`keep_trace` long-lived run retains
/// for its trace-mining adversaries (rounds).
pub const LONGLIVED_TRACE_WINDOW: usize = 8;

/// Emulated rounds a session lasts: `max(horizon, last scripted eround +
/// 1)`.
fn session_length(script: &[ScriptEntry], horizon: u64) -> u64 {
    script
        .iter()
        .map(|e| e.eround + 1)
        .max()
        .unwrap_or(0)
        .max(horizon)
}

/// The nodes of one session, as every driver of a session assembles
/// them ([`LongLivedSession::open`], the gateway, and trace replay): node
/// `v` gets key `keys[v]` and its own scripted broadcasts, every keyed
/// node carries the `rekeys` schedule (see [`LongLivedNode::with_rekeys`]),
/// and all nodes run for `max(horizon, last scripted eround + 1)`
/// emulated rounds.
///
/// # Panics
///
/// Panics when `keys` and `params.n()` disagree (a configuration bug).
pub fn session_nodes(
    params: &Params,
    keys: &[Option<SymmetricKey>],
    script: &[ScriptEntry],
    rekeys: &[(u64, SymmetricKey)],
    horizon: u64,
) -> Vec<LongLivedNode> {
    assert_eq!(keys.len(), params.n(), "one key slot per node");
    let emulated_rounds = session_length(script, horizon);
    // Built once and cloned per keyed node: the descending schedule
    // `with_rekeys` would derive from the same map.
    let schedule: Vec<(u64, SymmetricKey)> = rekeys
        .iter()
        .copied()
        .collect::<BTreeMap<u64, SymmetricKey>>()
        .into_iter()
        .rev()
        .collect();
    (0..params.n())
        .map(|id| {
            let my_script: BTreeMap<u64, Vec<u8>> = script
                .iter()
                .filter(|e| e.sender == id)
                .map(|e| (e.eround, e.message.clone()))
                .collect();
            let mut node =
                LongLivedNode::new(id, params.clone(), keys[id], my_script, emulated_rounds);
            if keys[id].is_some() {
                node.rekeys = schedule.clone();
            }
            node
        })
        .collect()
}

/// An open long-lived session as a *steppable handle*: the same network,
/// nodes, and drive order as [`run_longlived`], but advanced one physical
/// round at a time by the caller instead of run-to-completion. This is
/// what the session gateway multiplexes — each worker owns many open
/// sessions and interleaves their [`LongLivedSession::step`] calls — and
/// `run_longlived` itself is the degenerate one-session case
/// ([`LongLivedSession::run`]), so both paths are bit-identical by
/// construction.
pub struct LongLivedSession<A: Adversary<SealedBox>> {
    sim: Simulation<LongLivedNode, A>,
    epoch_len: u64,
    total: u64,
    rounds: u64,
}

impl<A: Adversary<SealedBox>> LongLivedSession<A> {
    /// Open a session.
    ///
    /// `keys[v]` is node `v`'s group key (or `None` for the ≤ t nodes the
    /// setup could not reach); `script` lists the broadcasts; `rekeys`
    /// schedules group-wide key rotations (applied to every keyed node;
    /// see [`LongLivedNode::with_rekeys`]). The session lasts
    /// `max(horizon, last scripted eround + 1)` emulated rounds — pass
    /// `horizon = 0` to derive the length from the script alone, as
    /// [`run_longlived`] does. `retention` is the history the network
    /// keeps and the adversary observes; `sink` optionally observes
    /// finished rounds (e.g. streaming them to a trace file) without
    /// changing that history.
    ///
    /// # Errors
    ///
    /// Propagates engine configuration failures.
    ///
    /// # Panics
    ///
    /// Panics when `keys` and `params.n()` disagree or a scripted sender
    /// has no group key (configuration bugs).
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        params: &Params,
        keys: &[Option<SymmetricKey>],
        script: &[ScriptEntry],
        rekeys: &[(u64, SymmetricKey)],
        horizon: u64,
        adversary: A,
        seed: u64,
        retention: TraceRetention,
        sink: Option<Box<dyn TraceSink<SealedBox>>>,
    ) -> Result<Self, EngineError> {
        let nodes = session_nodes(params, keys, script, rekeys, horizon);
        for entry in script {
            assert!(
                keys[entry.sender].is_some(),
                "scripted sender {} has no group key",
                entry.sender
            );
        }
        let cfg = NetworkConfig::new(params.c(), params.t())?
            .with_channel_model(params.channel_model().clone())
            .with_retention(retention);
        let sim = match sink {
            Some(sink) => Simulation::with_sink(cfg, nodes, adversary, seed, sink)?,
            None => Simulation::new(cfg, nodes, adversary, seed)?,
        };
        Ok(LongLivedSession {
            sim,
            epoch_len: params.epoch_rounds(),
            total: session_length(script, horizon) * params.epoch_rounds(),
            rounds: 0,
        })
    }

    /// Advance the session by one physical round.
    ///
    /// # Errors
    ///
    /// Propagates engine failures; the round is re-queued, so a caller
    /// may retry.
    pub fn step(&mut self) -> Result<(), EngineError> {
        self.sim.step()?;
        self.rounds += 1;
        Ok(())
    }

    /// `true` once every node has finished its emulated rounds.
    pub fn is_done(&self) -> bool {
        self.sim.all_done()
    }

    /// Physical rounds stepped so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Physical rounds per emulated round.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Nominal session length in physical rounds (`emulated rounds ×
    /// epoch length`); [`LongLivedSession::run`] allows two rounds of
    /// slack beyond it, matching [`run_longlived`].
    pub fn total_rounds(&self) -> u64 {
        self.total
    }

    /// The nodes, for reading their acceptance logs.
    pub fn nodes(&self) -> &[LongLivedNode] {
        self.sim.nodes()
    }

    /// Network statistics so far.
    pub fn stats(&self) -> &Stats {
        self.sim.stats()
    }

    /// Drive the session to completion and wrap up the standard report.
    ///
    /// # Errors
    ///
    /// Engine failures, or `RoundLimitExceeded` past the session length.
    pub fn run(&mut self, keep_trace: bool) -> Result<LongLivedReport, EngineError> {
        let report = self.sim.run(self.total + 2)?;
        self.rounds = report.rounds;
        let trace = keep_trace.then(|| self.sim.trace().clone());
        Ok(LongLivedReport {
            accepts: self
                .sim
                .nodes()
                .iter()
                .map(|n| n.accepts().to_vec())
                .collect(),
            rounds: report.rounds,
            epoch_len: self.epoch_len,
            stats: report.stats,
            trace,
        })
    }
}

fn run_longlived_inner<A>(
    params: &Params,
    keys: &[Option<SymmetricKey>],
    script: &[ScriptEntry],
    adversary: A,
    seed: u64,
    keep_trace: bool,
    sink: Option<Box<dyn TraceSink<SealedBox>>>,
) -> Result<LongLivedReport, EngineError>
where
    A: Adversary<SealedBox>,
{
    let retention = if keep_trace {
        TraceRetention::All
    } else {
        TraceRetention::LastRounds(LONGLIVED_TRACE_WINDOW)
    };
    let mut session = LongLivedSession::open(
        params,
        keys,
        script,
        &[],
        0,
        adversary,
        seed,
        retention,
        sink,
    )?;
    session.run(keep_trace)
}

#[cfg(test)]
mod codec_tests {
    use super::{decode, encode};

    #[test]
    fn roundtrip() {
        for (sender, eround, msg) in [
            (0usize, 0u64, &b""[..]),
            (7, 42, b"hello"),
            (usize::from(u32::MAX as u16), u64::MAX, b"edge"),
        ] {
            let bytes = encode(sender, eround, msg);
            assert_eq!(decode(bytes), Some((sender, eround, msg.to_vec())));
        }
    }

    #[test]
    fn short_input_rejected() {
        assert_eq!(decode(Vec::new()), None);
        assert_eq!(decode(vec![0u8; 11]), None);
        // Exactly the header with empty message is fine.
        assert_eq!(decode(vec![0u8; 12]), Some((0, 0, Vec::new())));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_network::adversaries::{NoAdversary, RandomJammer, Spoofer};

    fn params() -> Params {
        Params::minimal(40, 2).unwrap()
    }

    fn keys(p: &Params, missing: &[usize]) -> Vec<Option<SymmetricKey>> {
        let k = SymmetricKey::from_bytes([42u8; 32]);
        (0..p.n())
            .map(|v| if missing.contains(&v) { None } else { Some(k) })
            .collect()
    }

    fn script() -> Vec<ScriptEntry> {
        vec![
            ScriptEntry {
                eround: 0,
                sender: 3,
                message: b"hello group".to_vec(),
            },
            ScriptEntry {
                eround: 1,
                sender: 17,
                message: b"second broadcast".to_vec(),
            },
            ScriptEntry {
                eround: 2,
                sender: 3,
                message: b"third".to_vec(),
            },
        ]
    }

    #[test]
    fn quiet_channel_delivers_everything() {
        let p = params();
        let ks = keys(&p, &[]);
        let report = run_longlived(&p, &ks, &script(), NoAdversary, 5, false).unwrap();
        let holders = vec![true; p.n()];
        assert!((report.delivery_rate(&script(), &holders) - 1.0).abs() < 1e-9);
        assert_eq!(report.rounds, 3 * p.epoch_rounds());
    }

    #[test]
    fn jammed_channel_still_delivers_whp() {
        let p = params();
        let ks = keys(&p, &[]);
        let report = run_longlived(&p, &ks, &script(), RandomJammer::new(7), 9, false).unwrap();
        let holders = vec![true; p.n()];
        let rate = report.delivery_rate(&script(), &holders);
        assert!(rate > 0.999, "delivery rate {rate} too low under jamming");
    }

    #[test]
    fn unkeyed_nodes_hear_nothing() {
        let p = params();
        let ks = keys(&p, &[0, 1]);
        let report = run_longlived(&p, &ks, &script(), NoAdversary, 5, false).unwrap();
        assert!(report.accepts[0].is_empty());
        assert!(report.accepts[1].is_empty());
    }

    #[test]
    fn spoofed_frames_are_rejected() {
        let p = params();
        let ks = keys(&p, &[]);
        let wrong_key = SymmetricKey::from_bytes([13u8; 32]);
        let spoofer = Spoofer::new(3, move |round, _ch| {
            SealedBox::seal(&wrong_key, round / 74, &encode(3, round / 74, b"FORGED"))
        });
        let report = run_longlived(&p, &ks, &script(), spoofer, 5, false).unwrap();
        for (node, log) in report.accepts.iter().enumerate() {
            for a in log {
                let genuine = script().iter().any(|s| a.matches(s));
                assert!(
                    genuine,
                    "node {node} accepted a forged frame at {}",
                    a.eround
                );
            }
        }
    }

    #[test]
    fn frames_on_air_are_ciphertext() {
        let p = params();
        let ks = keys(&p, &[]);
        let report = run_longlived(&p, &ks, &script(), NoAdversary, 5, true).unwrap();
        let trace = report.trace.expect("kept");
        for rec in trace.records() {
            for (_, _, frame) in rec.transmissions() {
                // The plaintext never appears in the ciphertext.
                for entry in script() {
                    if frame.ciphertext.len() >= entry.message.len() {
                        assert!(
                            !frame
                                .ciphertext
                                .windows(entry.message.len())
                                .any(|w| w == entry.message.as_slice()),
                            "plaintext leaked on the air"
                        );
                    }
                }
            }
        }
    }
}
