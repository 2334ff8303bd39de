//! Static validation of the committed golden-trace corpus under
//! `tests/corpus/`, using the replay crate's own reader — so the linter
//! rejects exactly what the CI `trace-replay` job would choke on:
//! unpaired trace/sidecar files, unparseable sidecars, round gaps, and
//! lines that are not canonical `record_line` output.
//!
//! This is the cheap per-push check; the full re-execution (every trace
//! re-driven through `ScriptedAdversary` under both replay drivers with
//! `--expect-identical`) lives in the CI `trace-replay` job.

use crate::rules::Finding;
use std::path::Path;

/// One `trace-corpus` finding per violation under `root/tests/corpus`
/// (empty means the whole corpus conforms). A missing corpus directory
/// is fine — the scan may target a tree that does not ship one.
///
/// # Errors
///
/// Only on I/O failure listing or reading the directory itself —
/// malformed files are findings, not errors.
pub fn validate_trace_corpus(root: &Path) -> Result<Vec<Finding>, String> {
    let dir = root.join("tests/corpus");
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read tests/corpus: {e}"))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .collect();
    names.sort();

    let finding = |name: &str, message: String| Finding {
        file: format!("tests/corpus/{name}"),
        line: 1,
        rule: "trace-corpus".into(),
        message,
        hint: "see docs/TRACE_FORMAT.md; regenerate with \
               `cargo run --release -p replay -- --regen tests/corpus`"
            .into(),
        suggestion: None,
    };

    let mut findings = Vec::new();
    for name in &names {
        if let Some(stem) = name.strip_suffix(".meta.json") {
            if !names.contains(&format!("{stem}.jsonl")) {
                findings.push(finding(name, "sidecar has no matching .jsonl trace".into()));
            }
            continue;
        }
        if !name.ends_with(".jsonl") {
            findings.push(finding(
                name,
                "unexpected file (corpus holds only .jsonl traces and .meta.json sidecars)".into(),
            ));
            continue;
        }
        let meta_name = format!(
            "{}.meta.json",
            name.strip_suffix(".jsonl").expect("checked suffix")
        );
        if !names.contains(&meta_name) {
            findings.push(finding(
                name,
                format!("trace has no {meta_name} sidecar describing how to replay it"),
            ));
            continue;
        }
        let trace_text = std::fs::read_to_string(dir.join(name))
            .map_err(|e| format!("read tests/corpus/{name}: {e}"))?;
        let meta_text = std::fs::read_to_string(dir.join(&meta_name))
            .map_err(|e| format!("read tests/corpus/{meta_name}: {e}"))?;
        match replay::validate_corpus_entry(&trace_text, &meta_text) {
            Ok(0) => findings.push(finding(name, "trace records no rounds".into())),
            Ok(_) => {}
            Err(message) => findings.push(finding(name, message)),
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_corpus(tag: &str, files: &[(&str, &str)]) -> std::path::PathBuf {
        let root =
            std::env::temp_dir().join(format!("detlint-trace-corpus-{}-{tag}", std::process::id()));
        let dir = root.join("tests/corpus");
        std::fs::create_dir_all(&dir).expect("create temp corpus");
        for (name, text) in files {
            std::fs::write(dir.join(name), text).expect("write corpus file");
        }
        root
    }

    #[test]
    fn missing_corpus_directory_is_clean() {
        let root = std::env::temp_dir().join(format!("detlint-no-corpus-{}", std::process::id()));
        assert!(validate_trace_corpus(&root).expect("scan runs").is_empty());
    }

    #[test]
    fn committed_corpus_is_clean() {
        // detlint runs from its crate directory under `cargo test`; the
        // real corpus sits two levels up at the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = validate_trace_corpus(&root).expect("scan runs");
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unpaired_and_torn_files_are_findings() {
        let line = "{\"round\":0,\"transmissions\":[],\"listeners\":[],\"adversary\":[],\
                    \"delivered\":[null,null]}\n";
        let meta = replay::corpus_members().remove(0).1.json();
        let root = temp_corpus(
            "mixed",
            &[
                ("orphan.jsonl", line),
                ("widow.meta.json", &meta),
                ("torn.jsonl", "{\"round\":0,\"transmis"),
                ("torn.meta.json", &meta),
                ("stray.txt", "not a trace"),
            ],
        );
        let findings = validate_trace_corpus(&root).expect("scan runs");
        std::fs::remove_dir_all(&root).expect("cleanup");
        let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 4, "{messages:?}");
        assert!(messages.iter().any(|m| m.contains("no orphan.meta.json")));
        assert!(messages.iter().any(|m| m.contains("no matching .jsonl")));
        assert!(messages.iter().any(|m| m.contains("unexpected file")));
        // The torn trace fails inside the replay reader.
        assert!(findings.iter().any(|f| f.file.ends_with("torn.jsonl")));
    }
}
