//! A secure group chat over hostile spectrum: group-key setup followed by
//! the long-lived secure channel of Section 7.
//!
//! ```text
//! cargo run --example secure_chat
//! ```
//!
//! After the one-time setup, any node can broadcast to the whole group in
//! `Θ(t·log n)` rounds per message, with secrecy and authenticity, while
//! the adversary keeps jamming.

use secure_radio::fame::group_key::establish_group_key;
use secure_radio::fame::longlived::{run_longlived, ScriptEntry};
use secure_radio::fame::Params;
use secure_radio::net::adversaries::{BusyChannelJammer, RandomJammer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = Params::minimal(40, 2)?;

    // ---- one-time setup: establish the group key under jamming ----------
    println!("setup: establishing group key…");
    let report = establish_group_key(
        &params,
        RandomJammer::new(11),
        RandomJammer::new(12),
        RandomJammer::new(13),
        7,
        false,
    )?;
    assert!(report.agreement());
    println!(
        "  done in {} rounds; {}/{} nodes keyed",
        report.rounds.total(),
        report.holders(),
        params.n()
    );

    // ---- the chat session -------------------------------------------------
    let keys: Vec<_> = report.adopted.iter().map(|a| a.map(|(_, k)| k)).collect();
    let script = vec![
        ScriptEntry {
            eround: 0,
            sender: 5,
            message: b"anyone copy?".to_vec(),
        },
        ScriptEntry {
            eround: 1,
            sender: 23,
            message: b"loud and clear".to_vec(),
        },
        ScriptEntry {
            eround: 2,
            sender: 5,
            message: b"rendezvous at dawn".to_vec(),
        },
        ScriptEntry {
            eround: 3,
            sender: 31,
            message: b"ack. out.".to_vec(),
        },
    ];
    // The chat runs against a *history-aware* jammer; the keyed hopping
    // sequence makes its hindsight useless.
    let session = run_longlived(
        &params,
        &keys,
        &script,
        BusyChannelJammer::new(99, 16),
        3,
        false,
    )?;

    println!(
        "chat: {} messages in {} rounds ({} rounds per emulated slot)",
        script.len(),
        session.rounds,
        session.epoch_len
    );
    let holders: Vec<bool> = keys.iter().map(Option::is_some).collect();
    let rate = session.delivery_rate(&script, &holders);
    println!("delivery rate among keyed nodes: {:.1}%", rate * 100.0);

    // What one listener saw:
    let listener = 17;
    for a in &session.accepts[listener] {
        println!(
            "  node {listener} @ slot {}: <{}> {}",
            a.eround,
            a.sender,
            String::from_utf8_lossy(&a.message)
        );
    }
    assert!(rate > 0.99, "w.h.p. delivery should be near-perfect");
    Ok(())
}
