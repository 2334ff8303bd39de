//! The committed golden-trace corpus under `tests/corpus/`.
//!
//! One f-AME trace per adversary roster member plus one long-lived
//! session and one gateway-served session, each with a `.meta.json`
//! sidecar describing the run
//! ([`CorpusScenario`]). CI replays every trace through the
//! [`crate::ScriptedAdversary`] under both drivers with
//! `--expect-identical`; `replay --regen tests/corpus` rewrites the
//! whole set after an intentional protocol or format change.

use std::fs;
use std::path::{Path, PathBuf};

use fame::longlived::ScriptEntry;
use radio_network::{record_line, ChannelModelSpec};
use secure_radio_bench::scenario::Workload;
use secure_radio_bench::{AdversaryChoice, ScenarioSpec};

use crate::harness::CorpusScenario;
use crate::reader::{GapPolicy, TraceFile};

/// Turn an adversary label (`"omni/prefer-edges+spoof"`) into a file
/// stem (`"omni-prefer-edges-spoof"`).
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// The full corpus roster: `(file stem, scenario)` pairs, deterministic
/// and in a fixed order. f-AME entries cover every member of
/// [`AdversaryChoice::roster`]; the long-lived entry runs the emulated
/// channel for a few epochs under a random jammer.
pub fn corpus_members() -> Vec<(String, CorpusScenario)> {
    // The smallest admissible f-AME regime (n = Params::min_nodes(1, 2))
    // keeps the committed traces compact while still exercising every
    // adversary, both frame kinds, and multi-epoch schedules.
    let mut members = Vec::new();
    for (i, adversary) in AdversaryChoice::roster().into_iter().enumerate() {
        let stem = format!("fame-{}", slug(adversary.label()));
        let spec = ScenarioSpec::new(stem.clone(), 18, 1, 2)
            .with_workload(Workload::RandomPairs { edges: 2 })
            .with_seed(1000 + i as u64)
            .with_adversary(adversary);
        members.push((stem, CorpusScenario::Fame { spec, trial: 0 }));
    }
    // One golden trace per non-ideal channel model (same compact regime),
    // so the replayer's model threading — header, receptions, per-listener
    // divergence — is pinned byte-for-byte like the adversary roster is.
    for (i, model) in non_ideal_models(18).into_iter().enumerate() {
        let stem = format!("fame-channel-{}", slug(&model.label()));
        let spec = ScenarioSpec::new(stem.clone(), 18, 1, 2)
            .with_workload(Workload::RandomPairs { edges: 2 })
            .with_seed(2000 + i as u64)
            .with_adversary(AdversaryChoice::RandomJam)
            .with_channel_model(model);
        members.push((stem, CorpusScenario::Fame { spec, trial: 0 }));
    }
    members.push((
        "longlived-session".to_string(),
        CorpusScenario::LongLived {
            n: 18,
            t: 1,
            channels: 2,
            seed: 11,
            adversary: AdversaryChoice::RandomJam,
            keyed: vec![0, 1, 2, 3, 4],
            script: vec![
                ScriptEntry {
                    eround: 0,
                    sender: 0,
                    message: b"corpus broadcast one".to_vec(),
                },
                ScriptEntry {
                    eround: 1,
                    sender: 3,
                    message: b"corpus broadcast two".to_vec(),
                },
                ScriptEntry {
                    eround: 2,
                    sender: 1,
                    message: Vec::new(),
                },
            ],
        },
    ));
    // One gateway-served session (the serving layer's seed fan-out,
    // keyed-set churn, rekey schedule, and intensity jammer): session 3
    // of a 6-session service loses one setup key and rekeys mid-run.
    members.push((
        "gateway-session".to_string(),
        CorpusScenario::Gateway {
            sessions: 6,
            n: 18,
            t: 1,
            channels: 2,
            horizon: 3,
            rekey_every: 2,
            broadcast_pct: 60,
            intensity: 1,
            seed: 3000,
            session: 3,
        },
    ));
    members
}

/// The non-ideal channel models the corpus pins, sized for `n` nodes:
/// mild Bernoulli loss, a moderate capture threshold, and a near-complete
/// unit grid (only the farthest corner pairs fall out of earshot) — each
/// perturbs the protocol without stalling it past its round budget.
fn non_ideal_models(n: usize) -> Vec<ChannelModelSpec> {
    let side = (1..).find(|s| s * s >= n).expect("some square covers n");
    let positions: Vec<(i64, i64)> = (0..n as i64)
        .map(|i| (i % side as i64, i / side as i64))
        .collect();
    vec![
        ChannelModelSpec::Lossy { p_loss_ppm: 50_000 },
        ChannelModelSpec::Capture { threshold: 128 },
        ChannelModelSpec::Geometric {
            positions,
            radius: side as u64 - 1,
        },
    ]
}

/// The sidecar path for a trace file (`x.jsonl` → `x.meta.json`).
pub fn meta_path(trace: &Path) -> PathBuf {
    trace.with_extension("meta.json")
}

/// Re-record the whole corpus into `dir` (created if missing): one
/// `.jsonl` trace plus one `.meta.json` sidecar per roster entry.
/// Returns the trace paths written.
///
/// # Errors
/// On I/O failure or a failed recording run.
pub fn regen_corpus(dir: &Path) -> Result<Vec<PathBuf>, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for (stem, scenario) in corpus_members() {
        let trace = dir.join(format!("{stem}.jsonl"));
        scenario.record(&trace)?;
        let meta = meta_path(&trace);
        fs::write(&meta, scenario.json() + "\n")
            .map_err(|e| format!("write {}: {e}", meta.display()))?;
        written.push(trace);
    }
    Ok(written)
}

/// Statically validate one corpus entry: the sidecar parses, the trace
/// parses with **no** round gaps, every line is canonical
/// (`record_line` ∘ parse ≡ identity), and the channel count matches
/// the sidecar. Returns the number of recorded rounds.
///
/// This is the cheap schema check detlint runs per push; the CI
/// `trace-replay` job does the full re-execution.
///
/// # Errors
/// A message naming the offending line or field.
pub fn validate_corpus_entry(trace_text: &str, meta_text: &str) -> Result<u64, String> {
    let scenario = CorpusScenario::from_json_str(meta_text.trim())?;
    let trace = TraceFile::parse_str(trace_text, GapPolicy::Reject)?;
    for (record, line) in trace.records.iter().zip(&trace.lines) {
        let reencoded = record_line(record, String::clone);
        if &reencoded != line {
            return Err(format!(
                "round {}: line is not canonical record_line output",
                record.round
            ));
        }
    }
    // The trace's channel-model header and the sidecar's model must tell
    // the same story — a mismatch would replay under the wrong channel
    // semantics and report a bogus divergence (or hide a real one).
    let expected_header = match &scenario {
        CorpusScenario::Fame { spec, .. } if !spec.channel_model.is_ideal() => {
            Some(spec.channel_model.header_line())
        }
        _ => None,
    };
    if trace.header != expected_header {
        return Err(format!(
            "trace channel-model header {:?} does not match the sidecar's model {:?}",
            trace.header, expected_header
        ));
    }
    let expected_channels = match &scenario {
        CorpusScenario::Fame { spec, .. } => spec.channels,
        CorpusScenario::LongLived { channels, .. } | CorpusScenario::Gateway { channels, .. } => {
            *channels
        }
    };
    if let Some(channels) = trace.channels() {
        if channels != expected_channels {
            return Err(format!(
                "trace records {channels} channels but the sidecar says {expected_channels}"
            ));
        }
    }
    Ok(trace.total_rounds())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_covers_every_adversary_plus_models_plus_longlived() {
        let members = corpus_members();
        assert_eq!(members.len(), AdversaryChoice::roster().len() + 3 + 1 + 1);
        let stems: Vec<&str> = members.iter().map(|(s, _)| s.as_str()).collect();
        assert!(stems.contains(&"fame-busy-channel"));
        assert!(stems.contains(&"fame-omni-prefer-edges-spoof"));
        assert!(stems.contains(&"fame-channel-lossy-p50000"));
        assert!(stems.contains(&"fame-channel-capture-t128"));
        assert!(stems.contains(&"fame-channel-geometric-r4-n18"));
        assert!(stems.contains(&"longlived-session"));
        assert!(stems.contains(&"gateway-session"));
        // Stems are unique and filesystem-safe.
        let mut sorted = stems.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), stems.len());
        assert!(stems
            .iter()
            .all(|s| s.chars().all(|c| c.is_ascii_alphanumeric() || c == '-')));
    }

    #[test]
    fn meta_path_swaps_extension() {
        assert_eq!(
            meta_path(Path::new("tests/corpus/fame-none.jsonl")),
            Path::new("tests/corpus/fame-none.meta.json")
        );
    }

    #[test]
    fn validate_rejects_non_canonical_lines() {
        let (_, scenario) = corpus_members().remove(0);
        let meta = scenario.json();
        // Extra whitespace parses as JSON but is not canonical.
        let line = "{\"round\":0, \"transmissions\":[],\"listeners\":[],\"adversary\":[],\
                    \"delivered\":[null,null,null]}";
        let err = validate_corpus_entry(&format!("{line}\n"), &meta).unwrap_err();
        assert!(err.contains("not canonical"), "{err}");
    }
}
