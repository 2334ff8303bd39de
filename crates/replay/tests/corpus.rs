//! The committed golden corpus stays healthy: sidecars parse, traces
//! are canonical and gap-free, the roster matches the files on disk,
//! and a debug-build subset replays bit-identically under both drivers
//! (CI's `trace-replay` job re-drives the full set in release).

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

use replay::corpus::{corpus_members, meta_path, validate_corpus_entry};
use replay::{compare, CorpusScenario, EngineMode, GapPolicy, TraceFile};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn committed_stems() -> BTreeSet<String> {
    fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|entry| {
            let path = entry.expect("read dir entry").path();
            (path.extension().is_some_and(|e| e == "jsonl")).then(|| {
                path.file_stem()
                    .expect("stem")
                    .to_string_lossy()
                    .into_owned()
            })
        })
        .collect()
}

#[test]
fn committed_files_match_the_roster_exactly() {
    let roster: BTreeSet<String> = corpus_members().into_iter().map(|(s, _)| s).collect();
    assert_eq!(committed_stems(), roster);
}

#[test]
fn every_corpus_entry_validates_statically() {
    for (stem, scenario) in corpus_members() {
        let trace_path = corpus_dir().join(format!("{stem}.jsonl"));
        let trace_text = fs::read_to_string(&trace_path).expect("read committed trace");
        let meta_text = fs::read_to_string(meta_path(&trace_path)).expect("read sidecar");
        let rounds = validate_corpus_entry(&trace_text, &meta_text)
            .unwrap_or_else(|e| panic!("{stem}: {e}"));
        assert!(rounds > 0, "{stem}: empty trace");
        // The sidecar on disk describes exactly the roster scenario, so
        // `--regen` reproduces what is committed.
        assert_eq!(
            CorpusScenario::from_json_str(meta_text.trim()).expect("sidecar parses"),
            scenario,
            "{stem}: sidecar drifted from the roster"
        );
    }
}

#[test]
fn debug_subset_replays_bit_identically_on_both_engines() {
    // One history-mining f-AME trace and the long-lived session; the CI
    // release job covers the full roster.
    for stem in ["fame-busy-channel", "longlived-session"] {
        let trace_path = corpus_dir().join(format!("{stem}.jsonl"));
        let trace = TraceFile::load(&trace_path, GapPolicy::Reject).expect("clean trace");
        let meta_text = fs::read_to_string(meta_path(&trace_path)).expect("read sidecar");
        let scenario = CorpusScenario::from_json_str(meta_text.trim()).expect("sidecar parses");
        for mode in [EngineMode::Dense, EngineMode::Sparse] {
            let replayed = scenario.replay(&trace, mode).expect("replay runs");
            let report = compare(&trace, &replayed);
            assert!(
                report.identical(),
                "{stem} [{}]:\n{}",
                mode.label(),
                report.divergence.expect("divergence").render()
            );
        }
    }
}
