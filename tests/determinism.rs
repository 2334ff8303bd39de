//! Reproducibility: identical seeds produce identical executions across
//! the whole stack — the property every experiment table relies on.

use fame::group_key::establish_group_key;
use fame::longlived::{run_longlived, ScriptEntry};
use fame::problem::AmeInstance;
use fame::protocol::run_fame;
use fame::Params;
use proptest::prelude::*;
use radio_crypto::key::SymmetricKey;
use radio_network::adversaries::RandomJammer;
use secure_radio_bench::{
    AdversaryChoice, ExperimentRunner, ScenarioSpec, TrialCtx, TrialError, TrialOutcome, Workload,
};

#[test]
fn fame_runs_are_reproducible() {
    let p = Params::minimal(40, 2).unwrap();
    let pairs: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 9)).collect();
    let instance = AmeInstance::new(p.n(), pairs).unwrap();
    let a = run_fame(&instance, &p, RandomJammer::new(4), 81).unwrap();
    let b = run_fame(&instance, &p, RandomJammer::new(4), 81).unwrap();
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.moves, b.moves);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn fame_differs_across_seeds() {
    let p = Params::minimal(40, 2).unwrap();
    let pairs: Vec<(usize, usize)> = (0..8).map(|i| (i, i + 9)).collect();
    let instance = AmeInstance::new(p.n(), pairs).unwrap();
    let a = run_fame(&instance, &p, RandomJammer::new(4), 81).unwrap();
    let b = run_fame(&instance, &p, RandomJammer::new(5), 82).unwrap();
    // Different adversary coins: some observable difference is expected
    // (rounds are schedule-determined, but stats will differ).
    assert_ne!(a.stats, b.stats);
}

#[test]
fn group_key_is_reproducible() {
    let p = Params::minimal(36, 2).unwrap();
    let run = |seed| {
        establish_group_key(
            &p,
            RandomJammer::new(seed),
            RandomJammer::new(seed + 1),
            RandomJammer::new(seed + 2),
            seed,
            false,
        )
        .unwrap()
    };
    let a = run(9);
    let b = run(9);
    assert_eq!(a.adopted, b.adopted);
    assert_eq!(a.rounds, b.rounds);
    assert_eq!(a.complete_leaders, b.complete_leaders);
}

#[test]
fn longlived_is_reproducible() {
    let p = Params::minimal(40, 2).unwrap();
    let key = SymmetricKey::from_bytes([1u8; 32]);
    let keys: Vec<Option<SymmetricKey>> = (0..p.n()).map(|_| Some(key)).collect();
    let script = vec![ScriptEntry {
        eround: 0,
        sender: 3,
        message: b"once".to_vec(),
    }];
    let a = run_longlived(&p, &keys, &script, RandomJammer::new(2), 7, false).unwrap();
    let b = run_longlived(&p, &keys, &script, RandomJammer::new(2), 7, false).unwrap();
    assert_eq!(a.accepts, b.accepts);
    assert_eq!(a.rounds, b.rounds);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The runner's core guarantee: a multi-threaded run of a scenario is
    /// bit-identical — per-trial outcomes *and* aggregates — to a
    /// sequential run at the same base seed, for arbitrary seeds, trial
    /// counts, thread counts, and workload sizes.
    #[test]
    fn parallel_runner_matches_sequential(
        seed in 0u64..1_000_000,
        trials in 2usize..6,
        threads in 2usize..8,
        edges in 4usize..16,
    ) {
        let spec = ScenarioSpec::new("determinism", Params::min_nodes(1, 2), 1, 2)
            .with_workload(Workload::RandomPairs { edges })
            .with_adversary(AdversaryChoice::RandomJam)
            .with_trials(trials)
            .with_seed(seed);
        let sequential = ExperimentRunner::sequential()
            .run_fame_scenario(&spec)
            .expect("sequential run succeeds");
        let parallel = ExperimentRunner::with_threads(threads)
            .run_fame_scenario(&spec)
            .expect("parallel run succeeds");
        prop_assert_eq!(sequential, parallel);
    }

    /// Work stealing under deliberately skewed trial costs: every seventh
    /// trial burns ~200x the work of its neighbours (the load shape that
    /// used to strand contiguous chunks behind one slow thread), yet the
    /// per-trial outcomes and aggregates stay bit-identical across 1, 2, 7
    /// and 16 worker threads.
    #[test]
    fn work_stealing_is_deterministic_under_skewed_costs(
        seed in 0u64..u64::MAX,
        trials in 0usize..33,
    ) {
        let spec = ScenarioSpec::new("skewed", 0, 1, 2)
            .with_trials(trials)
            .with_seed(seed);
        let reference = ExperimentRunner::sequential()
            .run(&spec, skewed_cost_trial)
            .expect("sequential run succeeds");
        prop_assert_eq!(reference.outcomes.len(), trials);
        for threads in [2usize, 7, 16] {
            let stolen = ExperimentRunner::with_threads(threads)
                .run(&spec, skewed_cost_trial)
                .expect("parallel run succeeds");
            prop_assert_eq!(&reference, &stolen);
        }
    }
}

/// A seed-deterministic trial whose cost is wildly uneven across trial
/// indices: the expensive trials land on a stride, so contiguous chunking
/// would serialize them onto one worker while stealing spreads them out.
fn skewed_cost_trial(ctx: &TrialCtx<'_>) -> Result<TrialOutcome, TrialError> {
    let spins: u64 = if ctx.trial.is_multiple_of(7) {
        200_000
    } else {
        1_000
    };
    let mut acc = ctx.seed | 1;
    for i in 0..spins {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i ^ ctx.trial as u64);
    }
    Ok(TrialOutcome {
        rounds: acc % 997,
        moves: acc % 31,
        cover: acc.is_multiple_of(3).then_some((acc % 5) as usize),
        violations: acc % 2,
        ok: acc.is_multiple_of(4),
        dropped_records: 0,
    })
}
