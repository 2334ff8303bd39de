//! Hostile input against the replay parsers: trace lines and corpus
//! sidecars come from outside the program, so malformed bytes must come
//! back as an error, never a panic or a stack overflow.
//!
//! The property splices JSON tokens into committed corpus lines and
//! sidecars (the shapes the parsers expect, so mutations reach past the
//! syntax into the field-level checks) and feeds every mutant to
//! [`TraceFile::parse_str`] and [`CorpusScenario::from_json_str`].

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use replay::corpus::{corpus_members, meta_path};
use replay::{parse_record_line, CorpusScenario, GapPolicy, TraceFile};

/// Lines of each committed trace the property mutates (the head carries
/// the header line and every record shape; the rest adds only bulk).
const TRACE_HEAD_LINES: usize = 6;

/// Bare tokens that break the syntax: structural characters, a lone
/// quote or backslash, truncated and lone-surrogate escapes, multi-byte
/// text and a line break.
const SYNTAX: [&str; 13] = [
    "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u", "\\ud83d", "\\udc00", "é🦀", "\n",
];

/// Well-formed values of every type, including numbers at and past the
/// integer limits, to put where the parsers expect another type.
const VALUES: [&str; 13] = [
    "0",
    "-1",
    "1.5e3",
    "1e999",
    "18446744073709551616",
    "null",
    "true",
    "\"\"",
    "\"spoof\"",
    "\"noise\"",
    "[]",
    "{}",
    "{\"kind\":\"spoof\"}",
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// The committed documents, read once: (trace lines, sidecars).
fn documents() -> &'static (Vec<String>, Vec<String>) {
    static DOCS: OnceLock<(Vec<String>, Vec<String>)> = OnceLock::new();
    DOCS.get_or_init(|| {
        let dir = corpus_dir();
        let mut lines = Vec::new();
        let mut sidecars = Vec::new();
        for (stem, _) in corpus_members() {
            let path = dir.join(format!("{stem}.jsonl"));
            let trace = fs::read_to_string(&path).expect("read trace");
            lines.extend(trace.lines().take(TRACE_HEAD_LINES).map(str::to_owned));
            sidecars.push(fs::read_to_string(meta_path(&path)).expect("read sidecar"));
        }
        (lines, sidecars)
    })
}

/// One splice `(kind, at, token, delete)`; `at` picks a position modulo
/// the candidates of its kind:
///
/// * kind 0 — `SYNTAX[token]` at any char boundary, replacing up to
///   `delete` chars;
/// * kind 1 — `VALUES[token],` right after a `[` or `,`: one more array
///   element of an unexpected type;
/// * kind 2 — `VALUES[token],"zz":` right after a `:`: the field takes
///   the new value and its old one moves to an unknown key.
type Splice = (u8, usize, usize, usize);

fn splices() -> impl Strategy<Value = Vec<Splice>> {
    proptest::collection::vec((0u8..3, any::<usize>(), any::<usize>(), 0usize..8), 1..5)
}

fn mutate(doc: &str, splices: &[Splice]) -> String {
    let mut out = doc.to_string();
    for &(kind, at, token, delete) in splices {
        let (start, end, insert) = match kind {
            0 => {
                let mut start = at % (out.len() + 1);
                while !out.is_char_boundary(start) {
                    start -= 1;
                }
                let mut end = (start + delete).min(out.len());
                while !out.is_char_boundary(end) {
                    end += 1;
                }
                (start, end, SYNTAX[token % SYNTAX.len()].to_string())
            }
            _ => {
                let (marks, tail): (&[u8], &str) = if kind == 1 {
                    (b"[,", ",")
                } else {
                    (b":", ",\"zz\":")
                };
                let spots: Vec<usize> = (0..out.len())
                    .filter(|&i| marks.contains(&out.as_bytes()[i]))
                    .map(|i| i + 1)
                    .collect();
                let start = if spots.is_empty() {
                    0
                } else {
                    spots[at % spots.len()]
                };
                let value = VALUES[token % VALUES.len()];
                (start, start, format!("{value}{tail}"))
            }
        };
        out.replace_range(start..end, &insert);
    }
    out
}

/// `true` when `parse` returns on `input` instead of panicking.
fn returns<T>(input: &str, parse: impl FnOnce(&str) -> T) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        parse(input);
    }))
    .is_ok()
}

#[test]
fn deeply_nested_trace_line_is_an_error() {
    // Without the reader's depth bound, 100 000 levels overflow the stack
    // and abort the whole process.
    let hostile = "[".repeat(100_000);
    let err = parse_record_line(&hostile).unwrap_err();
    assert!(err.contains("nesting"), "{err}");
    let line = format!("{{\"round\":0,\"transmissions\":{hostile}");
    assert!(TraceFile::parse_str(&line, GapPolicy::Reject).is_err());
    assert!(CorpusScenario::from_json_str(&format!("{{\"kind\":{hostile}")).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn mutated_corpus_documents_never_panic_the_parsers(
        doc in any::<usize>(),
        edits in splices(),
    ) {
        let (lines, sidecars) = documents();
        let trace = mutate(&lines[doc % lines.len()], &edits);
        let sidecar = mutate(&sidecars[doc % sidecars.len()], &edits);
        for policy in [GapPolicy::Reject, GapPolicy::Skip] {
            prop_assert!(
                returns(&trace, |t| TraceFile::parse_str(t, policy)),
                "TraceFile::parse_str panicked on {:?}",
                trace
            );
        }
        prop_assert!(
            returns(&sidecar, CorpusScenario::from_json_str),
            "CorpusScenario::from_json_str panicked on {:?}",
            sidecar
        );
    }
}
