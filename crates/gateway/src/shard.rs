//! One worker's shard: the sessions it owns, their admission state, and
//! the batched tick that advances them.

use fame::longlived::{LongLivedSession, ScriptEntry};
use fame::Params;
use radio_crypto::key::SymmetricKey;
use radio_network::{EngineError, TraceRetention};

use crate::workload::{keyed_nodes, session_engine_seed, session_jammer, session_keys};
use crate::{IntensityJammer, Request, ServeError, ServiceConfig};

/// One accepted broadcast, from the gateway's point of view: listener
/// `node` of the session accepted `sender`'s emulated-round-`eround`
/// broadcast in physical round `round`. Delivery latency in physical
/// rounds is `round - eround * epoch_len + 1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Delivery {
    /// Accepting node.
    pub node: usize,
    /// The broadcast's sender.
    pub sender: usize,
    /// The broadcast's emulated round.
    pub eround: u64,
    /// Physical round the frame was accepted in.
    pub round: u64,
}

/// The finished record of one served session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SessionOutcome {
    /// Session id.
    pub session: usize,
    /// Physical rounds the session ran.
    pub rounds: u64,
    /// Every acceptance, in drain order (by node within a tick, ticks in
    /// round order) — the session's delivery transcript.
    pub transcript: Vec<Delivery>,
    /// Acceptances counted (`transcript.len()`).
    pub delivered: u64,
    /// Acceptances a lossless channel would have produced: scripted
    /// broadcasts × (keyed nodes − 1 sender).
    pub expected: u64,
    /// Broadcast requests admitted for this session.
    pub broadcasts: u64,
}

/// What a session still waiting to open has accumulated from admission.
#[derive(Default)]
struct PendingSession {
    script: Vec<ScriptEntry>,
    rekeys: Vec<(u64, SymmetricKey)>,
}

/// A live session plus the drain state the tick loop needs.
struct SessionSlot {
    id: usize,
    session: LongLivedSession<IntensityJammer>,
    /// Per-node cursor into `LongLivedNode::accepts` (already drained).
    cursors: Vec<usize>,
    /// Pre-sized acceptance transcript; pushes never reallocate.
    transcript: Vec<Delivery>,
    expected: u64,
    broadcasts: u64,
}

impl SessionSlot {
    fn finish(self) -> SessionOutcome {
        SessionOutcome {
            session: self.id,
            rounds: self.session.rounds(),
            delivered: self.transcript.len() as u64,
            expected: self.expected,
            broadcasts: self.broadcasts,
            transcript: self.transcript,
        }
    }
}

/// One worker's disjoint slice of the service: sessions `s` with
/// `s % workers == worker`. The shard is single-threaded by design —
/// [`serve`](crate::serve) runs one per worker thread, and tests drive
/// one directly to measure the tick in isolation.
///
/// Lifecycle: [`WorkerShard::admit`] every routed request, then
/// [`WorkerShard::open_sessions`], then [`WorkerShard::tick`] until
/// [`WorkerShard::live_sessions`] reaches zero, then
/// [`WorkerShard::take_outcomes`].
pub struct WorkerShard {
    cfg: ServiceConfig,
    params: Params,
    worker: usize,
    pending: Vec<PendingSession>,
    live: Vec<SessionSlot>,
    done: Vec<SessionOutcome>,
    ticks: u64,
    steps: u64,
    rejected: u64,
}

impl WorkerShard {
    /// A shard for `worker` under `cfg`.
    ///
    /// # Errors
    ///
    /// Invalid config axes ([`ServiceConfig::validate`]) or a network
    /// shape `Params::new` rejects.
    pub fn new(cfg: &ServiceConfig, worker: usize) -> Result<Self, ServeError> {
        cfg.validate()?;
        if worker >= cfg.workers {
            return Err(ServeError::Config(format!(
                "worker {worker} out of range for {} workers",
                cfg.workers
            )));
        }
        let params = Params::new(cfg.n, cfg.t, cfg.channels)
            .map_err(|e| ServeError::Config(format!("session network shape: {e}")))?;
        let owned = Self::owned_sessions(cfg, worker);
        let mut pending = Vec::with_capacity(owned);
        pending.resize_with(owned, PendingSession::default);
        Ok(WorkerShard {
            cfg: *cfg,
            params,
            worker,
            pending,
            live: Vec::with_capacity(owned),
            done: Vec::with_capacity(owned),
            ticks: 0,
            steps: 0,
            rejected: 0,
        })
    }

    /// How many sessions `worker` owns under `cfg`.
    fn owned_sessions(cfg: &ServiceConfig, worker: usize) -> usize {
        (cfg.sessions + cfg.workers - 1 - worker) / cfg.workers
    }

    /// The session ids this shard owns, ascending.
    fn owned_id(&self, slot: usize) -> usize {
        self.worker + slot * self.cfg.workers
    }

    /// Admit one request. Requests for sessions this shard does not own,
    /// out-of-horizon rounds, unkeyed senders, or already-taken slots
    /// are rejected (counted, not fatal): admission must not be able to
    /// panic a worker.
    pub fn admit(&mut self, req: Request) {
        let s = req.session();
        if s >= self.cfg.sessions || s % self.cfg.workers != self.worker {
            self.rejected += 1;
            return;
        }
        let slot = (s - self.worker) / self.cfg.workers;
        match req {
            Request::Broadcast {
                sender,
                eround,
                payload,
                ..
            } => {
                let keyed = keyed_nodes(&self.cfg, s);
                let taken = self.pending[slot].script.iter().any(|e| e.eround == eround);
                if eround >= self.cfg.horizon || sender >= self.cfg.n || !keyed[sender] || taken {
                    self.rejected += 1;
                    return;
                }
                self.pending[slot].script.push(ScriptEntry {
                    eround,
                    sender,
                    message: payload,
                });
            }
            Request::Rekey { eround, key, .. } => {
                let taken = self.pending[slot]
                    .rekeys
                    .iter()
                    .any(|(at, _)| *at == eround);
                if eround >= self.cfg.horizon || taken {
                    self.rejected += 1;
                    return;
                }
                self.pending[slot].rekeys.push((eround, key));
            }
        }
    }

    /// Open every owned session from its admitted script. Call once,
    /// after admission ends.
    ///
    /// # Errors
    ///
    /// Engine configuration failures.
    pub fn open_sessions(&mut self) -> Result<(), ServeError> {
        let pending = std::mem::take(&mut self.pending);
        for (slot, p) in pending.into_iter().enumerate() {
            let id = self.owned_id(slot);
            let keys: Vec<Option<SymmetricKey>> = session_keys(&self.cfg, id);
            let session = LongLivedSession::open(
                &self.params,
                &keys,
                &p.script,
                &p.rekeys,
                self.cfg.horizon,
                session_jammer(&self.cfg, id),
                session_engine_seed(&self.cfg, id),
                TraceRetention::None,
                None,
            )?;
            let keyed_count = keys.iter().filter(|k| k.is_some()).count();
            let broadcasts = p.script.len() as u64;
            let expected = broadcasts * (keyed_count as u64 - 1);
            self.live.push(SessionSlot {
                id,
                session,
                cursors: vec![0; self.cfg.n],
                // Upper bound: every keyed node but the sender accepts
                // each scripted broadcast exactly once.
                transcript: Vec::with_capacity((expected + broadcasts) as usize),
                expected,
                broadcasts,
            });
        }
        Ok(())
    }

    /// Advance every live session by one physical round and drain the
    /// new acceptances into the per-session transcripts.
    ///
    /// This is the gateway's hot path. Over listen-only rounds it makes
    /// no allocator calls, across a rekey too (pinned by
    /// `tests/zero_alloc.rs`: the engine round, the PRF hop on each
    /// node's cached hopper, the rekey, the cursor drain, and the
    /// pre-sized transcript pushes). A broadcasting round allocates in
    /// `fame::longlived`: the sender clones its frame, sealed once per
    /// emulated round, onto the air, and each listener opens its first
    /// valid copy of the emulated round into one plaintext buffer.
    ///
    /// # Errors
    ///
    /// Engine failures (the failed round is re-queued inside the
    /// session, so a caller may retry).
    pub fn tick(&mut self) -> Result<(), EngineError> {
        // detlint: deny-alloc(start) gateway steady-state tick
        for slot in &mut self.live {
            if slot.session.is_done() {
                continue;
            }
            slot.session.step()?;
            self.steps += 1;
            let nodes = slot.session.nodes();
            for (node_idx, node) in nodes.iter().enumerate() {
                let log = node.accepts();
                let cursor = &mut slot.cursors[node_idx];
                while *cursor < log.len() {
                    let a = &log[*cursor];
                    slot.transcript.push(Delivery {
                        node: node_idx,
                        sender: a.sender,
                        eround: a.eround,
                        round: a.round,
                    });
                    *cursor += 1;
                }
            }
        }
        self.ticks += 1;
        // detlint: deny-alloc(end)

        // Retire finished sessions (rare: allocation is allowed here).
        let mut i = 0;
        while i < self.live.len() {
            if self.live[i].session.is_done() {
                let slot = self.live.swap_remove(i);
                self.done.push(slot.finish());
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// Sessions still running.
    pub fn live_sessions(&self) -> usize {
        self.live.len()
    }

    /// Ticks executed (each advances all live sessions by one round).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Session-rounds stepped — the shard's deterministic work measure
    /// (per-worker utilization = its share of the service-wide total).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Requests rejected at admission.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The finished sessions, surrendering them (retirement order; the
    /// caller sorts by session id when merging shards).
    pub fn take_outcomes(&mut self) -> Vec<SessionOutcome> {
        std::mem::take(&mut self.done)
    }
}
