//! Timing and counting shims for the traced runs.
//!
//! The library stays untouched: the traced run rebuilds a session or an
//! exchange from the library's public pieces and wraps each node and the
//! jammer in a shim that implements the same `Protocol` / `Adversary`
//! trait, forwards every call, and records what the call did and how long
//! it took. A shim also clones each round's actions, so the engine's own
//! cost can be timed afterwards by replaying the rounds through a second
//! `Network` ([`EngineReplay`]) with one clock pair per batch.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use fame::longlived::LongLivedNode;
use fame::{FameFrame, FameNode};
use radio_crypto::cipher::SealedBox;
use radio_network::seed;
use radio_network::{
    Action, Adversary, AdversaryAction, AdversaryView, EngineError, Network, NetworkConfig, NodeId,
    Protocol, Reception, Stats,
};

use crate::counting::allocations;
use crate::report::median;

/// Rounds replayed per engine timing batch.
const REPLAY_BATCH: usize = 512;

/// Cost of one `Instant::now()` in ns. Each timed interval contains about
/// one clock read of overhead; callers subtract this per interval.
pub fn clock_ns() -> f64 {
    const READS: u32 = 20_000;
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&samples)
}

/// `total_ns` spent in `intervals` timed intervals, less the one clock
/// read of `clock_ns` each interval carries (never below 0).
pub fn net_of_clock(total_ns: f64, intervals: u64, clock_ns: f64) -> f64 {
    (total_ns - intervals as f64 * clock_ns).max(0.0)
}

/// One resolved round: the awake nodes' actions (ascending node id, as
/// the driver visits them) and the adversary's move.
pub struct Round<M> {
    actions: Vec<(NodeId, Action<M>)>,
    adversary: AdversaryAction<M>,
}

/// State the shims of one traced run share: the round being recorded, and
/// counters. Timings are raw sums; subtract `clock_ns` per timed call.
pub struct Probe<M> {
    /// Time callbacks only on rounds where `sampled(round)` holds.
    sample_every: u64,
    round: Round<M>,
    /// `begin_round` calls (nodes the wake-queue visited).
    pub visits: u64,
    /// `begin_round` calls that returned `Listen`, and their time.
    pub listens: u64,
    pub listen_ns: f64,
    /// `begin_round` calls that returned `Transmit`, and their time.
    pub transmits: u64,
    pub transmit_ns: f64,
    /// `end_round` calls that opened a frame, and their time.
    pub opens: u64,
    pub open_ns: f64,
    /// Broadcasts accepted.
    pub accepts: u64,
    /// Node callbacks timed (sampled rounds only), and their time.
    pub callbacks_timed: u64,
    pub callback_ns: f64,
    /// Rounds sampled, and the adversary's time on them.
    pub sampled_rounds: u64,
    pub adversary_ns: f64,
    /// Allocations the shims made themselves (recording actions), to be
    /// taken out of an allocation count that brackets `Simulation::step`.
    pub shim_allocs: u64,
}

impl<M: Clone> Probe<M> {
    /// A probe timing every `sample_every`-th round (1 = every round),
    /// shared by the shims of one run.
    pub fn shared(sample_every: u64) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Probe {
            sample_every,
            round: Round {
                actions: Vec::new(),
                adversary: AdversaryAction::idle(),
            },
            visits: 0,
            listens: 0,
            listen_ns: 0.0,
            transmits: 0,
            transmit_ns: 0.0,
            opens: 0,
            open_ns: 0.0,
            accepts: 0,
            callbacks_timed: 0,
            callback_ns: 0.0,
            sampled_rounds: 0,
            adversary_ns: 0.0,
            shim_allocs: 0,
        }))
    }

    /// Whether callbacks of `round` are timed. The rule is a hash of the
    /// round, so samples do not lock onto a protocol's periodic phases.
    fn sampled(&self, round: u64) -> bool {
        seed::derive(0x7ACE, round).is_multiple_of(self.sample_every)
    }

    fn record_action(&mut self, node: usize, action: &Action<M>) {
        let before = allocations();
        self.round.actions.push((NodeId(node), action.clone()));
        self.shim_allocs += allocations() - before;
    }

    /// Hand over the round just stepped, leaving an empty one.
    pub fn take_round(&mut self) -> Round<M> {
        Round {
            actions: std::mem::take(&mut self.round.actions),
            adversary: std::mem::replace(&mut self.round.adversary, AdversaryAction::idle()),
        }
    }
}

fn elapsed_ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// A long-lived node that times every callback and sorts it by what it
/// did: a `Listen` is one channel hop, a `Transmit` is a hop plus a seal,
/// and an `end_round` that received a current-epoch frame on a keyed node
/// is an open (the node MACs and decrypts it).
pub struct LongLivedProbe {
    id: usize,
    inner: LongLivedNode,
    keyed: bool,
    epoch_len: u64,
    probe: Rc<RefCell<Probe<SealedBox>>>,
}

impl LongLivedProbe {
    /// Wrap node `id`.
    pub fn new(
        id: usize,
        inner: LongLivedNode,
        keyed: bool,
        epoch_len: u64,
        probe: Rc<RefCell<Probe<SealedBox>>>,
    ) -> Self {
        LongLivedProbe {
            id,
            inner,
            keyed,
            epoch_len,
            probe,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &LongLivedNode {
        &self.inner
    }
}

impl Protocol for LongLivedProbe {
    type Msg = SealedBox;

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }

    fn begin_round(&mut self, round: u64) -> Action<SealedBox> {
        let t0 = Instant::now();
        let action = self.inner.begin_round(round);
        let ns = elapsed_ns(t0);
        let mut p = self.probe.borrow_mut();
        p.visits += 1;
        match &action {
            Action::Listen { .. } => {
                p.listens += 1;
                p.listen_ns += ns;
            }
            Action::Transmit { .. } => {
                p.transmits += 1;
                p.transmit_ns += ns;
            }
            Action::Sleep => {}
        }
        p.record_action(self.id, &action);
        action
    }

    fn end_round(&mut self, round: u64, reception: Option<Reception<&SealedBox>>) {
        let opens = self.keyed
            && matches!(
                reception,
                Some(Reception { frame: Some(f), .. }) if f.nonce == round / self.epoch_len
            );
        let before = self.inner.accepts().len();
        let t0 = Instant::now();
        self.inner.end_round(round, reception);
        let ns = elapsed_ns(t0);
        let mut p = self.probe.borrow_mut();
        if opens {
            p.opens += 1;
            p.open_ns += ns;
        }
        p.accepts += (self.inner.accepts().len() - before) as u64;
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn next_wake(&self, round: u64) -> u64 {
        self.inner.next_wake(round)
    }
}

/// An f-AME node whose callbacks are timed on sampled rounds only: one
/// callback costs about as much as the two clock reads around it.
pub struct FameProbe {
    inner: FameNode,
    probe: Rc<RefCell<Probe<FameFrame>>>,
}

impl FameProbe {
    /// Wrap `inner`.
    pub fn new(inner: FameNode, probe: Rc<RefCell<Probe<FameFrame>>>) -> Self {
        FameProbe { inner, probe }
    }

    /// The wrapped node.
    pub fn into_inner(self) -> FameNode {
        self.inner
    }
}

impl Protocol for FameProbe {
    type Msg = FameFrame;

    fn reseed(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }

    fn begin_round(&mut self, round: u64) -> Action<FameFrame> {
        let timed = self.probe.borrow().sampled(round);
        let t0 = timed.then(Instant::now);
        let action = self.inner.begin_round(round);
        let ns = t0.map(elapsed_ns);
        let mut p = self.probe.borrow_mut();
        p.visits += 1;
        if let Some(ns) = ns {
            p.callbacks_timed += 1;
            p.callback_ns += ns;
        }
        p.record_action(self.inner.id(), &action);
        action
    }

    fn end_round(&mut self, round: u64, reception: Option<Reception<&FameFrame>>) {
        let timed = self.probe.borrow().sampled(round);
        let t0 = timed.then(Instant::now);
        self.inner.end_round(round, reception);
        if let Some(t0) = t0 {
            let ns = elapsed_ns(t0);
            let mut p = self.probe.borrow_mut();
            p.callbacks_timed += 1;
            p.callback_ns += ns;
        }
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn next_wake(&self, round: u64) -> u64 {
        self.inner.next_wake(round)
    }
}

/// A jammer timed on sampled rounds, its moves recorded for the replay.
pub struct TimedAdversary<A, M> {
    inner: A,
    probe: Rc<RefCell<Probe<M>>>,
}

impl<A, M> TimedAdversary<A, M> {
    /// Wrap `inner`.
    pub fn new(inner: A, probe: Rc<RefCell<Probe<M>>>) -> Self {
        TimedAdversary { inner, probe }
    }
}

impl<M: Clone, A: Adversary<M>> Adversary<M> for TimedAdversary<A, M> {
    fn act(&mut self, round: u64, view: &AdversaryView<'_, M>) -> AdversaryAction<M> {
        let timed = self.probe.borrow().sampled(round);
        let t0 = timed.then(Instant::now);
        let action = self.inner.act(round, view);
        let ns = t0.map(elapsed_ns);
        let mut p = self.probe.borrow_mut();
        if let Some(ns) = ns {
            p.sampled_rounds += 1;
            p.adversary_ns += ns;
        }
        let before = allocations();
        p.round.adversary = action.clone();
        p.shim_allocs += allocations() - before;
        action
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Re-resolves recorded rounds on a network of its own, timing
/// `Network::resolve_round_sparse` with one clock pair and one allocation
/// count per batch.
pub struct EngineReplay<M> {
    net: Network<M>,
    batch: Vec<Round<M>>,
    /// Rounds replayed.
    pub rounds: u64,
    /// Time spent resolving them.
    pub ns: f64,
    /// Allocations made while resolving them.
    pub allocs: u64,
}

impl<M: Clone + std::fmt::Debug + Send + 'static> EngineReplay<M> {
    /// A replay network built from the config the recorded runs used.
    pub fn new(cfg: NetworkConfig) -> Self {
        EngineReplay {
            net: Network::new(cfg),
            batch: Vec::with_capacity(REPLAY_BATCH),
            rounds: 0,
            ns: 0.0,
            allocs: 0,
        }
    }

    /// Queue one recorded round, replaying the batch once it is full.
    ///
    /// # Errors
    ///
    /// The engine rejected a recorded round.
    pub fn push(&mut self, round: Round<M>) -> Result<(), EngineError> {
        self.batch.push(round);
        if self.batch.len() == REPLAY_BATCH {
            self.flush()?;
        }
        Ok(())
    }

    /// Replay every queued round.
    ///
    /// # Errors
    ///
    /// The engine rejected a recorded round.
    pub fn flush(&mut self) -> Result<(), EngineError> {
        let before = allocations();
        let t0 = Instant::now();
        for round in &self.batch {
            black_box(
                self.net
                    .resolve_round_sparse(&round.actions, &round.adversary)?,
            );
        }
        self.ns += elapsed_ns(t0);
        self.allocs += allocations() - before;
        self.rounds += self.batch.len() as u64;
        self.batch.clear();
        Ok(())
    }

    /// Statistics of every replayed round: they must equal the recorded
    /// runs' own, or the replay resolved something else.
    pub fn stats(&self) -> &Stats {
        self.net.stats()
    }
}

/// Field-wise sum of two [`Stats`].
pub fn add_stats(sum: &mut Stats, s: &Stats) {
    sum.rounds += s.rounds;
    sum.honest_transmissions += s.honest_transmissions;
    sum.honest_deliveries += s.honest_deliveries;
    sum.collisions += s.collisions;
    sum.adversary_transmissions += s.adversary_transmissions;
    sum.spoofs_delivered += s.spoofs_delivered;
    sum.jams_effective += s.jams_effective;
    sum.silent_receptions += s.silent_receptions;
    sum.frames_received += s.frames_received;
    sum.dropped_records += s.dropped_records;
}
