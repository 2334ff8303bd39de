//! `gateway-quiet` and `gateway-jammed`: the session gateway serving 256
//! long-lived sessions on one worker, driven through `gateway::serve`.
//!
//! Session shape n=36, t=2, C=3 (an emulated round is 65 physical rounds),
//! a 3-emulated-round horizon so every session crosses the rekey at
//! emulated round 2, broadcasts on 60% of slots, lossless `Block` ingress.
//! 256 sessions hold about 8 MB of session state, more than a core's
//! 2 MiB L2, so the tick walks memory the way a loaded gateway does. The
//! two workloads differ only in jamming intensity (0, or 2 of 3 channels
//! every round).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use fame::longlived::LongLivedNode;
use fame::Params;
use gateway::{
    keyed_nodes, serve, session_engine_seed, session_jammer, session_keys, session_plan, workload,
    Delivery, GatewayReport, IntensityJammer, Request, ServiceConfig, WorkerShard,
};
use radio_crypto::cipher::SealedBox;
use radio_crypto::key::SymmetricKey;
use radio_crypto::prf::ChannelHopper;
use radio_network::{NetworkConfig, Simulation, Stats, TraceRetention};

use crate::counting::allocations;
use crate::host;
use crate::report::{median, nearest_rank, ratio, Outcome};
use crate::shims::{
    add_stats, clock_ns, net_of_clock, EngineReplay, LongLivedProbe, Probe, TimedAdversary,
};

/// Sessions served per `serve` call.
const SESSIONS: usize = 256;
/// Emulated rounds per session; the rekey lands on emulated round 2.
const HORIZON: u64 = 3;
/// Set-ups timed before each `serve` call. Spreading them over the run
/// samples the host's speed when the calls do; the median is reported.
const SETUP_REPS: usize = 11;
/// `serve` calls a run makes at least, whatever `--seconds` says.
const MIN_SERVES: usize = 3;

/// The service configuration of a gateway workload.
fn config(seed: u64, intensity: usize) -> ServiceConfig {
    ServiceConfig::new(SESSIONS, 1, 36, 2, 3, HORIZON, seed)
        .with_rekey_every(2)
        .with_broadcast_pct(60)
        .with_intensity(intensity)
}

fn engine_err(e: impl std::fmt::Display) -> String {
    format!("gateway: {e}")
}

/// One timed set-up: generate every session's requests, build the shard,
/// admit them all and open every session.
fn setup_once(cfg: &ServiceConfig) -> Result<f64, String> {
    let t0 = Instant::now();
    let mut shard = WorkerShard::new(cfg, 0).map_err(engine_err)?;
    for s in 0..cfg.sessions {
        for req in workload(cfg, s) {
            shard.admit(req);
        }
    }
    shard.open_sessions().map_err(engine_err)?;
    let secs = t0.elapsed().as_secs_f64();
    if shard.rejected() != 0 {
        return Err(format!("set-up rejected {} requests", shard.rejected()));
    }
    Ok(secs)
}

/// One `serve` call over the whole workload, with its wall time and, when
/// `time_submits` is set, the time spent inside `Client::submit`.
fn serve_once(
    cfg: &ServiceConfig,
    time_submits: bool,
) -> Result<(GatewayReport, f64, f64), String> {
    let mut submit_ns = 0.0;
    let t0 = Instant::now();
    let report = serve(cfg, |client| {
        for s in 0..cfg.sessions {
            for req in workload(cfg, s) {
                if time_submits {
                    let t = Instant::now();
                    client.submit(req);
                    submit_ns += t.elapsed().as_nanos() as f64;
                } else {
                    client.submit(req);
                }
            }
        }
    })
    .map_err(engine_err)?;
    Ok((report, t0.elapsed().as_secs_f64(), submit_ns))
}

/// The correctness gates every run applies to a `serve` report.
fn check_report(cfg: &ServiceConfig, report: &GatewayReport, requests: u64) -> Result<(), String> {
    if report.dropped != 0 || report.rejected != 0 || report.submitted != requests {
        return Err(format!(
            "requests lost: {} dropped, {} rejected, {} of {requests} submitted",
            report.dropped, report.rejected, report.submitted
        ));
    }
    if report.outcomes.len() != cfg.sessions {
        return Err(format!(
            "{} of {} sessions reported",
            report.outcomes.len(),
            cfg.sessions
        ));
    }
    if cfg.intensity == 0 && report.delivered != report.expected {
        return Err(format!(
            "quiet channel delivered {} of {} acceptances",
            report.delivered, report.expected
        ));
    }
    for o in &report.outcomes {
        let (script, _) = session_plan(cfg, o.session);
        let keyed = keyed_nodes(cfg, o.session);
        let mut seen = BTreeSet::new();
        for d in &o.transcript {
            let scripted = script
                .iter()
                .any(|e| e.eround == d.eround && e.sender == d.sender);
            let genuine = scripted
                && d.node != d.sender
                && keyed[d.node]
                && d.round / report.epoch_len == d.eround
                && seen.insert((d.node, d.eround));
            if !genuine {
                return Err(format!(
                    "session {}: acceptance {d:?} matches no scripted broadcast",
                    o.session
                ));
            }
        }
        if o.delivered != o.transcript.len() as u64 || o.broadcasts != script.len() as u64 {
            return Err(format!(
                "session {}: counts disagree with its transcript",
                o.session
            ));
        }
    }
    Ok(())
}

fn request_count(cfg: &ServiceConfig) -> u64 {
    (0..cfg.sessions)
        .map(|s| workload(cfg, s).len() as u64)
        .sum()
}

/// The untraced run: set-ups and `serve` calls, alternating, for about
/// `seconds`; every call must reproduce the first report exactly.
pub fn run(seed: u64, intensity: usize, seconds: f64) -> Result<Outcome, String> {
    let cfg = config(seed, intensity);
    let requests = request_count(&cfg);
    let start = Instant::now();
    let mut first: Option<GatewayReport> = None;
    let (mut setups, mut msg_rates, mut session_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut attempted = 0;
    loop {
        for _ in 0..SETUP_REPS {
            setups.push(setup_once(&cfg)?);
        }
        let (report, wall, _) = serve_once(&cfg, false)?;
        attempted += report.submitted;
        msg_rates.push(report.delivered as f64 / wall);
        session_rates.push(cfg.sessions as f64 / wall);
        match &first {
            None => {
                check_report(&cfg, &report, requests)?;
                first = Some(report);
            }
            Some(f) if *f != report => {
                return Err("two serve calls of one workload disagree".into())
            }
            Some(_) => {}
        }
        let elapsed = start.elapsed().as_secs_f64();
        if msg_rates.len() >= MIN_SERVES && elapsed + wall > seconds {
            break;
        }
    }
    let report = first.expect("served at least once");
    let latency = report.latency.ok_or("nothing was delivered")?;
    let samples = report.delivered;
    eprintln!(
        "gateway: {} serve calls, {requests} requests each; latency over {samples} acceptances; \
         msgs/s per call {msg_rates:.1?}",
        msg_rates.len()
    );

    let mut out = Outcome::new(attempted, 0);
    out.set("msgs_per_s", median(&msg_rates));
    out.set("exchanges_per_s", median(&session_rates));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mib", host::peak_rss_mib());
    out.set("latency_p50_rounds", latency.p50 as f64);
    out.set("latency_p99_rounds", latency.p99 as f64);
    let rounds: u64 = report.outcomes.iter().map(|o| o.rounds).sum();
    out.set("rounds_per_exchange", rounds as f64 / cfg.sessions as f64);
    out.set(
        "delivered_share",
        report.delivered as f64 / report.expected as f64,
    );
    Ok(out)
}

/// A session rebuilt from the gateway's public pieces, nodes and jammer
/// wrapped in shims.
struct ShimSession {
    id: usize,
    sim: Simulation<LongLivedProbe, TimedAdversary<IntensityJammer, SealedBox>>,
    cursors: Vec<usize>,
    transcript: Vec<Delivery>,
    rounds: u64,
}

fn network_config(params: &Params) -> Result<NetworkConfig, String> {
    Ok(NetworkConfig::new(params.c(), params.t())
        .map_err(engine_err)?
        .with_channel_model(params.channel_model().clone())
        .with_retention(TraceRetention::None))
}

/// Open session `s` the way `WorkerShard::open_sessions` does.
fn open_shim_session(
    cfg: &ServiceConfig,
    params: &Params,
    s: usize,
    probe: &Rc<RefCell<Probe<SealedBox>>>,
) -> Result<ShimSession, String> {
    let (script, rekeys) = session_plan(cfg, s);
    let keys = session_keys(cfg, s);
    let emulated = script
        .iter()
        .map(|e| e.eround + 1)
        .max()
        .unwrap_or(0)
        .max(cfg.horizon);
    let rekey_map: BTreeMap<u64, SymmetricKey> = rekeys.iter().copied().collect();
    let nodes: Vec<LongLivedProbe> = (0..cfg.n)
        .map(|id| {
            let mine: BTreeMap<u64, Vec<u8>> = script
                .iter()
                .filter(|e| e.sender == id)
                .map(|e| (e.eround, e.message.clone()))
                .collect();
            let node = LongLivedNode::new(id, params.clone(), keys[id], mine, emulated);
            let node = if keys[id].is_some() {
                node.with_rekeys(rekey_map.clone())
            } else {
                node
            };
            LongLivedProbe::new(
                id,
                node,
                keys[id].is_some(),
                params.epoch_rounds(),
                probe.clone(),
            )
        })
        .collect();
    let jammer = TimedAdversary::new(session_jammer(cfg, s), probe.clone());
    let sim = Simulation::new(
        network_config(params)?,
        nodes,
        jammer,
        session_engine_seed(cfg, s),
    )
    .map_err(engine_err)?;
    Ok(ShimSession {
        id: s,
        sim,
        cursors: vec![0; cfg.n],
        transcript: Vec::new(),
        rounds: 0,
    })
}

/// Pass 2 of the traced run: one `WorkerShard` driven by hand.
struct ShardPass {
    admit_ns: f64,
    open_ns: f64,
    tick_ms: Vec<f64>,
    tick_allocs: u64,
}

fn shard_pass(cfg: &ServiceConfig, report: &GatewayReport) -> Result<ShardPass, String> {
    let all: Vec<Request> = (0..cfg.sessions).flat_map(|s| workload(cfg, s)).collect();
    let mut shard = WorkerShard::new(cfg, 0).map_err(engine_err)?;
    let t0 = Instant::now();
    for req in all {
        shard.admit(req);
    }
    let admit_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    shard.open_sessions().map_err(engine_err)?;
    let open_ns = t0.elapsed().as_nanos() as f64;
    let mut tick_ms = Vec::new();
    let mut tick_allocs = 0;
    while shard.live_sessions() > 0 {
        let before = allocations();
        let t0 = Instant::now();
        shard.tick().map_err(engine_err)?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tick_allocs += allocations() - before;
        tick_ms.push(ms);
    }
    let mut outcomes = shard.take_outcomes();
    outcomes.sort_unstable_by_key(|o| o.session);
    if outcomes != report.outcomes || shard.steps() != report.steps_per_worker.iter().sum() {
        return Err("a WorkerShard driven by hand disagrees with serve".into());
    }
    Ok(ShardPass {
        admit_ns,
        open_ns,
        tick_ms,
        tick_allocs,
    })
}

/// Pass 3 of the traced run: every session rebuilt with shims.
struct ShimPass {
    probe: Rc<RefCell<Probe<SealedBox>>>,
    replay: EngineReplay<SealedBox>,
    steps: u64,
    /// Allocations inside `Simulation::step`, the shims' own taken out.
    step_allocs: u64,
    wall: f64,
    stats: Stats,
}

/// Step every session round-robin, one round per session per pass, the
/// way `WorkerShard::tick` does, draining acceptances after each step.
fn shim_pass(
    cfg: &ServiceConfig,
    params: &Params,
    report: &GatewayReport,
) -> Result<ShimPass, String> {
    let probe = Probe::shared(1);
    let mut replay = EngineReplay::new(network_config(params)?);
    let mut live = (0..cfg.sessions)
        .map(|s| open_shim_session(cfg, params, s, &probe))
        .collect::<Result<Vec<ShimSession>, String>>()?;
    let mut finished = Vec::with_capacity(cfg.sessions);
    let (mut steps, mut step_allocs) = (0u64, 0u64);
    let start = Instant::now();
    while !live.is_empty() {
        for sess in &mut live {
            let before = allocations();
            sess.sim.step().map_err(engine_err)?;
            step_allocs += allocations() - before;
            steps += 1;
            sess.rounds += 1;
            replay
                .push(probe.borrow_mut().take_round())
                .map_err(engine_err)?;
            for (node_idx, node) in sess.sim.nodes().iter().enumerate() {
                let log = node.inner().accepts();
                let cursor = &mut sess.cursors[node_idx];
                for a in &log[*cursor..] {
                    sess.transcript.push(Delivery {
                        node: node_idx,
                        sender: a.sender,
                        eround: a.eround,
                        round: a.round,
                    });
                }
                *cursor = log.len();
            }
        }
        let (done, running): (Vec<ShimSession>, Vec<ShimSession>) =
            live.into_iter().partition(|s| s.sim.all_done());
        finished.extend(done);
        live = running;
    }
    replay.flush().map_err(engine_err)?;
    let wall = start.elapsed().as_secs_f64();

    finished.sort_unstable_by_key(|s| s.id);
    let mut stats = Stats::default();
    for (sess, o) in finished.iter().zip(&report.outcomes) {
        if sess.transcript != o.transcript || sess.rounds != o.rounds {
            return Err(format!(
                "session {}: the traced run's acceptances differ from serve's",
                o.session
            ));
        }
        add_stats(&mut stats, sess.sim.stats());
    }
    if *replay.stats() != stats {
        return Err("the engine replay resolved different rounds".into());
    }
    let step_allocs = step_allocs - probe.borrow().shim_allocs;
    Ok(ShimPass {
        probe,
        replay,
        steps,
        step_allocs,
        wall,
        stats,
    })
}

/// Per-call cost in ns of `f`, the median over batches timed with one
/// clock pair each.
fn ns_per_call(mut f: impl FnMut(u64)) -> f64 {
    const CALLS: u64 = 1000;
    let batches: Vec<f64> = (0..15)
        .map(|b| {
            let t0 = Instant::now();
            for i in 0..CALLS {
                f(b * CALLS + i);
            }
            t0.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    median(&batches)
}

/// Pass 4 of the traced run: `radio-crypto` timed directly, on a 28-byte
/// frame plaintext (the 12-byte long-lived header plus the workload's
/// 16-byte payload) under a session key. Returns (hop, seal, open) in ns.
fn crypto_pass(seed: u64, channels: usize) -> (f64, f64, f64) {
    let key = gateway::initial_key(seed, 0);
    let plain = [0x5Au8; 28];
    let hop = ns_per_call(|i| {
        black_box(ChannelHopper::new(black_box(&key), channels).channel_for(i));
    });
    let seal = ns_per_call(|i| {
        black_box(SealedBox::seal(black_box(&key), i, black_box(&plain)));
    });
    let sealed = SealedBox::seal(&key, 7, &plain);
    let open = ns_per_call(|_| {
        black_box(black_box(&sealed).open(black_box(&key)));
    });
    (hop, seal, open)
}

/// The traced run. Four passes over the same workload:
/// 1. `serve` with `Client::submit` timed: the reference report and the
///    untraced throughput;
/// 2. one `WorkerShard` driven by hand: `admit`, `open_sessions` and every
///    `tick` timed, allocations counted around each tick;
/// 3. every session rebuilt with shims: hop, seal, open and jammer costs,
///    and the engine replayed;
/// 4. `radio-crypto` calls timed directly.
///
/// Passes 2 and 3 must reproduce pass 1 session by session, and the exact
/// counts must match what the workload implies.
pub fn run_traced(seed: u64, intensity: usize) -> Result<Outcome, String> {
    let cfg = config(seed, intensity);
    let params = Params::new(cfg.n, cfg.t, cfg.channels).map_err(engine_err)?;
    let requests = request_count(&cfg);
    let clock = clock_ns();

    let (report, serve_wall, submit_ns) = serve_once(&cfg, true)?;
    check_report(&cfg, &report, requests)?;
    let serve_steps: u64 = report.steps_per_worker.iter().sum();
    let shard = shard_pass(&cfg, &report)?;
    let shim = shim_pass(&cfg, &params, &report)?;
    let (hop_ns, seal_ns, open_ns) = crypto_pass(seed, params.c());

    // Exact counts: they follow from the workload, so they must repeat.
    let p = shim.probe.borrow();
    let broadcasts: u64 = report.outcomes.iter().map(|o| o.broadcasts).sum();
    let keyed_rounds: u64 = report
        .outcomes
        .iter()
        .map(|o| keyed_nodes(&cfg, o.session).iter().filter(|k| **k).count() as u64 * o.rounds)
        .sum();
    if p.transmits != broadcasts * report.epoch_len
        || p.listens + p.transmits != keyed_rounds
        || p.accepts != report.delivered
        || shim.step_allocs != shard.tick_allocs
    {
        return Err(format!(
            "exact counts do not repeat: seals {} (want {}), hops {} (want {keyed_rounds}), \
             accepts {} (want {}), step allocations {} (tick: {})",
            p.transmits,
            broadcasts * report.epoch_len,
            p.listens + p.transmits,
            p.accepts,
            report.delivered,
            shim.step_allocs,
            shard.tick_allocs,
        ));
    }

    let per_call_us =
        |ns: f64, calls: u64| ratio(net_of_clock(ns, calls, clock), calls as f64) / 1e3;
    let steps = shim.steps as f64;
    let mut out = Outcome::new(requests, 0);
    out.set(
        "gateway.submit_us_per_req",
        per_call_us(submit_ns, requests),
    );
    out.set(
        "gateway.admit_us_per_req",
        shard.admit_ns / requests as f64 / 1e3,
    );
    out.set(
        "gateway.open_us_per_session",
        shard.open_ns / cfg.sessions as f64 / 1e3,
    );
    out.set("gateway.tick_ms_p50", median(&shard.tick_ms));
    out.set("gateway.tick_ms_p99", nearest_rank(&shard.tick_ms, 99));
    out.set(
        "gateway.allocs_per_session_round",
        shard.tick_allocs as f64 / serve_steps as f64,
    );
    out.set("longlived.hop_us", per_call_us(p.listen_ns, p.listens));
    out.set("longlived.seal_us", per_call_us(p.transmit_ns, p.transmits));
    out.set("longlived.open_us", per_call_us(p.open_ns, p.opens));
    out.set("longlived.hops", (p.listens + p.transmits) as f64 / steps);
    out.set("longlived.seals", p.transmits as f64 / steps);
    out.set("longlived.opens", p.opens as f64 / steps);
    out.set("longlived.accepts", p.accepts as f64 / steps);
    out.set(
        "longlived.open_useful_ratio",
        ratio(p.accepts as f64, p.opens as f64),
    );
    out.set(
        "longlived.seal_useful_ratio",
        ratio(broadcasts as f64, p.transmits as f64),
    );
    out.set("crypto.hop_ns", hop_ns);
    out.set("crypto.seal_ns", seal_ns);
    out.set("crypto.open_ns", open_ns);
    out.set(
        "engine.self_ns_per_round",
        shim.replay.ns / shim.replay.rounds as f64,
    );
    out.set(
        "engine.allocs_per_round",
        shim.replay.allocs as f64 / shim.replay.rounds as f64,
    );
    out.set("engine.awake_per_round", p.visits as f64 / steps);
    out.set(
        "engine.collisions_per_round",
        shim.stats.collisions as f64 / steps,
    );
    out.set(
        "adversary.act_ns",
        ratio(
            net_of_clock(p.adversary_ns, p.sampled_rounds, clock),
            p.sampled_rounds as f64,
        ),
    );
    out.set(
        "trace.overhead_ratio",
        (shim.wall / steps) / (serve_wall / serve_steps as f64),
    );
    out.set("trace.checked_units", cfg.sessions as f64);
    out.set("trace.clock_ns", clock);
    Ok(out)
}
