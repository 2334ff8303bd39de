//! `fame-exchange`: batches of `fame::run_fame` calls at n=64, t=2, C=3
//! with 24 random pairs each, against `RandomJammer` — the C=3 point of
//! `BENCH_channel_sweep.json`, about 6500 physical rounds per exchange.
//! The protocol uses no crypto and keeps all 64 nodes awake, so the engine
//! and the f-AME state machines are all the work there is.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use fame::protocol::{extract_outcome, make_nodes, round_budget};
use fame::{run_fame, AmeInstance, FameRun, Params, FAME_TRACE_WINDOW};
use radio_network::adversaries::RandomJammer;
use radio_network::{seed, NetworkConfig, Simulation, Stats, TraceRetention};

use crate::host;
use crate::report::{median, nearest_rank, ratio, Outcome};
use crate::shims::{
    add_stats, clock_ns, net_of_clock, EngineReplay, FameProbe, Probe, TimedAdversary,
};

const N: usize = 64;
const T: usize = 2;
const C: usize = 3;
/// Pairs per exchange.
const PAIRS: usize = 24;
/// Exchanges per batch.
const BATCH: usize = 16;
/// Set-ups timed before each batch. Spreading them over the run samples
/// the host's speed when the batches do; the median is reported.
const SETUP_REPS: usize = 2;
/// Batches a run makes at least, whatever `--seconds` says.
const MIN_BATCHES: usize = 5;
/// Callbacks of the traced run are timed on one round in this many.
const SAMPLE_EVERY: u64 = 8;

/// The inputs of one exchange, all derived from the workload seed.
struct ExchangeSpec {
    pairs: Vec<(usize, usize)>,
    run_seed: u64,
    jammer_seed: u64,
}

/// `m` distinct ordered pairs over `n` nodes drawn from `seed`.
fn random_pairs(n: usize, m: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut set = BTreeSet::new();
    let mut draw = 0;
    while set.len() < m {
        let x = seed::derive(seed, draw);
        draw += 1;
        let (v, w) = ((x % n as u64) as usize, ((x >> 32) % n as u64) as usize);
        if v != w {
            set.insert((v, w));
        }
    }
    set.into_iter().collect()
}

fn specs(seed: u64) -> Vec<ExchangeSpec> {
    (0..BATCH as u64)
        .map(|i| {
            let base = seed::derive(seed, i + 1);
            ExchangeSpec {
                pairs: random_pairs(N, PAIRS, seed::derive(base, 0)),
                run_seed: seed::derive(base, 1),
                jammer_seed: seed::derive(base, 2),
            }
        })
        .collect()
}

fn fame_err(e: impl std::fmt::Display) -> String {
    format!("fame: {e}")
}

fn params() -> Result<Params, String> {
    Params::new(N, T, C).map_err(fame_err)
}

fn instances(specs: &[ExchangeSpec]) -> Result<Vec<AmeInstance>, String> {
    specs
        .iter()
        .map(|s| AmeInstance::new(N, s.pairs.iter().copied()).map_err(fame_err))
        .collect()
}

/// One timed set-up of the whole batch: every instance, its nodes and its
/// jammer.
fn setup_once(specs: &[ExchangeSpec], params: &Params) -> Result<f64, String> {
    let t0 = Instant::now();
    for s in specs {
        let instance = AmeInstance::new(N, s.pairs.iter().copied()).map_err(fame_err)?;
        black_box(make_nodes(&instance, params, s.run_seed).map_err(fame_err)?);
        black_box(RandomJammer::new(s.jammer_seed));
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// The Theorem 6 / Definition 1 gates on one exchange.
fn check_run(run: &FameRun, instance: &AmeInstance) -> Result<(), String> {
    let o = &run.outcome;
    if !o.is_d_disruptable(T) {
        return Err(format!(
            "disruption cover {} exceeds t={T}",
            o.disruption_cover()
        ));
    }
    if !o.authentication_violations(instance).is_empty() {
        return Err("a forged or altered message was accepted".into());
    }
    if !o.awareness_violations().is_empty() {
        return Err("a sender's view disagrees with its destination".into());
    }
    Ok(())
}

fn run_batch(
    specs: &[ExchangeSpec],
    instances: &[AmeInstance],
    params: &Params,
) -> Result<(Vec<FameRun>, f64), String> {
    let t0 = Instant::now();
    let runs = specs
        .iter()
        .zip(instances)
        .map(|(s, inst)| {
            run_fame(inst, params, RandomJammer::new(s.jammer_seed), s.run_seed).map_err(fame_err)
        })
        .collect::<Result<Vec<FameRun>, String>>()?;
    Ok((runs, t0.elapsed().as_secs_f64()))
}

fn same_runs(a: &[FameRun], b: &[FameRun]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.outcome == y.outcome && x.moves == y.moves && x.stats == y.stats)
}

/// The untraced run: set-ups and batches, alternating, for about
/// `seconds`; every batch must reproduce the first exactly.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let params = params()?;
    let specs = specs(seed);
    let instances = instances(&specs)?;

    let start = Instant::now();
    let mut first: Option<Vec<FameRun>> = None;
    let (mut setups, mut exchange_rates, mut msg_rates) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        for _ in 0..SETUP_REPS {
            setups.push(setup_once(&specs, &params)?);
        }
        let (runs, wall) = run_batch(&specs, &instances, &params)?;
        let delivered: usize = runs.iter().map(|r| r.outcome.delivered_count()).sum();
        exchange_rates.push(BATCH as f64 / wall);
        msg_rates.push(delivered as f64 / wall);
        match &first {
            None => {
                for (run, inst) in runs.iter().zip(&instances) {
                    check_run(run, inst)?;
                }
                first = Some(runs);
            }
            Some(f) if !same_runs(f, &runs) => {
                return Err("two batches of one workload disagree".into())
            }
            Some(_) => {}
        }
        let elapsed = start.elapsed().as_secs_f64();
        if exchange_rates.len() >= MIN_BATCHES && elapsed + wall > seconds {
            break;
        }
    }
    let runs = first.expect("ran at least one batch");
    let rounds: Vec<f64> = runs.iter().map(|r| r.outcome.rounds as f64).collect();
    let delivered: usize = runs.iter().map(|r| r.outcome.delivered_count()).sum();
    eprintln!(
        "fame-exchange: {} batches of {BATCH} exchanges; latency over {BATCH} exchanges; \
         exchanges/s per batch {exchange_rates:.2?}",
        exchange_rates.len()
    );

    let mut out = Outcome::new((exchange_rates.len() * BATCH) as u64, 0);
    out.set("msgs_per_s", median(&msg_rates));
    out.set("exchanges_per_s", median(&exchange_rates));
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mib", host::peak_rss_mib());
    out.set("latency_p50_rounds", nearest_rank(&rounds, 50));
    out.set("latency_p99_rounds", nearest_rank(&rounds, 99));
    out.set(
        "rounds_per_exchange",
        rounds.iter().sum::<f64>() / BATCH as f64,
    );
    out.set("delivered_share", delivered as f64 / (BATCH * PAIRS) as f64);
    Ok(out)
}

/// The traced run: the batch once through `run_fame` (reference and
/// untraced throughput), then once rebuilt from `make_nodes` with every
/// node and the jammer in a shim, callbacks timed on sampled rounds and
/// every round replayed through the engine. Outcomes must match.
pub fn run_traced(seed: u64) -> Result<Outcome, String> {
    let params = params()?;
    let specs = specs(seed);
    let instances = instances(&specs)?;
    let clock = clock_ns();

    let (reference, untraced_wall) = run_batch(&specs, &instances, &params)?;
    for (run, inst) in reference.iter().zip(&instances) {
        check_run(run, inst)?;
    }

    let net = NetworkConfig::new(params.c(), params.t())
        .map_err(fame_err)?
        .with_channel_model(params.channel_model().clone())
        .with_retention(TraceRetention::LastRounds(FAME_TRACE_WINDOW));
    let probe = Probe::shared(SAMPLE_EVERY);
    let mut replay = EngineReplay::new(net.clone());
    let mut stats = Stats::default();
    let (mut setup_ns, mut rounds, mut moves) = (0.0, 0u64, 0usize);
    let traced_start = Instant::now();
    for ((s, inst), want) in specs.iter().zip(&instances).zip(&reference) {
        let t0 = Instant::now();
        let nodes = make_nodes(inst, &params, s.run_seed).map_err(fame_err)?;
        setup_ns += t0.elapsed().as_nanos() as f64;
        let nodes: Vec<FameProbe> = nodes
            .into_iter()
            .map(|n| FameProbe::new(n, probe.clone()))
            .collect();
        let jammer = TimedAdversary::new(RandomJammer::new(s.jammer_seed), probe.clone());
        let mut sim = Simulation::new(net.clone(), nodes, jammer, s.run_seed).map_err(fame_err)?;
        let budget = round_budget(&params, inst.len());
        let mut exchange_rounds = 0;
        while !sim.all_done() {
            if exchange_rounds >= budget {
                return Err(format!("traced exchange overran its {budget}-round budget"));
            }
            sim.step().map_err(fame_err)?;
            exchange_rounds += 1;
            replay
                .push(probe.borrow_mut().take_round())
                .map_err(fame_err)?;
        }
        let sim_stats = *sim.stats();
        let nodes: Vec<_> = sim
            .into_nodes()
            .into_iter()
            .map(FameProbe::into_inner)
            .collect();
        let outcome = extract_outcome(inst, &nodes, exchange_rounds);
        if outcome != want.outcome || nodes[0].moves() != want.moves || sim_stats != want.stats {
            return Err("the traced exchange differs from run_fame's".into());
        }
        add_stats(&mut stats, &sim_stats);
        rounds += exchange_rounds;
        moves += want.moves;
    }
    replay.flush().map_err(fame_err)?;
    let traced_wall = traced_start.elapsed().as_secs_f64();
    if *replay.stats() != stats {
        return Err("the engine replay resolved different rounds".into());
    }

    let p = probe.borrow();
    let rounds_f = rounds as f64;
    let mut out = Outcome::new(BATCH as u64, 0);
    out.set("engine.self_ns_per_round", replay.ns / replay.rounds as f64);
    out.set(
        "engine.allocs_per_round",
        replay.allocs as f64 / replay.rounds as f64,
    );
    out.set("engine.awake_per_round", p.visits as f64 / rounds_f);
    out.set(
        "engine.collisions_per_round",
        stats.collisions as f64 / rounds_f,
    );
    out.set(
        "adversary.act_ns",
        ratio(
            net_of_clock(p.adversary_ns, p.sampled_rounds, clock),
            p.sampled_rounds as f64,
        ),
    );
    out.set(
        "fame.node_us_per_round",
        ratio(
            net_of_clock(p.callback_ns, p.callbacks_timed, clock),
            p.sampled_rounds as f64,
        ) / 1e3,
    );
    out.set("fame.moves_per_exchange", moves as f64 / BATCH as f64);
    out.set("fame.setup_us_per_exchange", setup_ns / BATCH as f64 / 1e3);
    out.set("trace.overhead_ratio", traced_wall / untraced_wall);
    out.set("trace.checked_units", BATCH as f64);
    out.set("trace.clock_ns", clock);
    eprintln!(
        "fame traced: {rounds} rounds; untraced {:.2} us/round",
        untraced_wall * 1e6 / rounds_f
    );
    Ok(out)
}
