//! Satellite: replaying a recorded history-mining-jammer trace through
//! `ScriptedAdversary` reproduces the original trace byte-identically
//! under the dense *and* the wake-queue driver — property-tested over seeds —
//! and a corrupted trace is bisected to the exact divergent round.

use std::path::PathBuf;

use proptest::prelude::*;
use replay::{compare, CorpusScenario, EngineMode, GapPolicy, TraceFile};
use secure_radio_bench::scenario::Workload;
use secure_radio_bench::{AdversaryChoice, ScenarioSpec};

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "replay-differential-{}-{tag}.jsonl",
        std::process::id()
    ))
}

/// A small f-AME scenario under the trace-mining `BusyChannel` jammer.
fn history_miner_scenario(seed: u64) -> CorpusScenario {
    CorpusScenario::Fame {
        spec: ScenarioSpec::new("differential", 40, 2, 3)
            .with_workload(Workload::RandomPairs { edges: 3 })
            .with_seed(seed)
            .with_adversary(AdversaryChoice::BusyChannel { window: 8 }),
        trial: 0,
    }
}

fn record_and_load(scenario: &CorpusScenario, tag: &str) -> TraceFile {
    let path = temp_trace(tag);
    scenario.record(&path).expect("recording succeeds");
    let trace = TraceFile::load(&path, GapPolicy::Reject).expect("recorded trace is clean");
    std::fs::remove_file(&path).expect("remove temp trace");
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn history_miner_replays_byte_identically_on_both_engines(seed in 0u64..1_000_000) {
        let scenario = history_miner_scenario(seed);
        let trace = record_and_load(&scenario, &format!("prop-{seed}"));
        prop_assert!(trace.total_rounds() > 0);
        for mode in [EngineMode::Dense, EngineMode::Sparse] {
            let replayed = match scenario.replay(&trace, mode) {
                Ok(lines) => lines,
                Err(e) => return Err(TestCaseError::fail(format!("{} replay: {e}", mode.label()))),
            };
            let report = compare(&trace, &replayed);
            if let Some(div) = &report.divergence {
                return Err(TestCaseError::fail(format!(
                    "{} engine diverged:\n{}",
                    mode.label(),
                    div.render()
                )));
            }
            prop_assert_eq!(report.rounds_compared, trace.records.len() as u64);
        }
    }
}

#[test]
fn spoofing_omniscient_trace_replays_on_both_engines() {
    // The Theorem 2 attacker: schedule-aware jamming plus forged frames,
    // so the replay exercises the spoof-frame decoder too.
    let scenario = CorpusScenario::Fame {
        spec: ScenarioSpec::new("differential-spoof", 40, 2, 3)
            .with_workload(Workload::RandomPairs { edges: 3 })
            .with_seed(77)
            .with_adversary(AdversaryChoice::OmniSpoof),
        trial: 0,
    };
    let trace = record_and_load(&scenario, "omnispoof");
    assert!(
        trace.lines.iter().any(|l| l.contains("\"kind\":\"spoof\"")),
        "the omniscient spoofing run should actually spoof"
    );
    for mode in [EngineMode::Dense, EngineMode::Sparse] {
        let replayed = scenario.replay(&trace, mode).expect("replay runs");
        let report = compare(&trace, &replayed);
        assert!(
            report.identical(),
            "{} engine diverged:\n{}",
            mode.label(),
            report.divergence.expect("divergence").render()
        );
    }
}

#[test]
fn mutated_trace_bisects_to_the_exact_round() {
    let scenario = history_miner_scenario(4242);
    let mut trace = record_and_load(&scenario, "mutated");
    let target = trace.total_rounds() / 2;
    trace.mutate_round(target).expect("round exists");
    for mode in [EngineMode::Dense, EngineMode::Sparse] {
        let replayed = scenario.replay(&trace, mode).expect("replay runs");
        let report = compare(&trace, &replayed);
        let div = report.divergence.as_ref().expect("mutation must diverge");
        assert_eq!(div.round, target, "{} engine", mode.label());
        assert_eq!(report.rounds_compared, target);
        let rendered = div.render();
        assert!(
            rendered.contains(&format!("first divergence at round {target}")),
            "{rendered}"
        );
        assert!(rendered.contains("\"node\":4096"), "{rendered}");
    }
}
