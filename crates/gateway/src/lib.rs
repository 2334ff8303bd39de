//! Session gateway: thread-per-core concurrent serving of long-lived
//! f-AME sessions.
//!
//! The paper's long-lived emulation (Section 7, [`fame::longlived`]) is
//! the piece meant to run *forever under load*. A single session is
//! cheap — the engine resolves a round in O(active) with zero
//! steady-state allocations — so the remaining throughput ceiling is
//! multiplexing **many** sessions across cores. This crate is that
//! serving layer:
//!
//! * **Sharding** — session `s` is pinned to worker `s % workers`; every
//!   per-session seed fans out of the service seed with
//!   [`radio_network::seed::derive`], so results are **bit-identical
//!   across worker counts** (the worker grid changes *where* a session
//!   runs, never *what* it computes).
//! * **Ingress/egress queues** — bounded MPSC channels reusing the
//!   [`ChannelSink`](radio_network::ChannelSink) backpressure contract
//!   via [`radio_network::send_bounded`]:
//!   [`OverflowPolicy::Block`](radio_network::OverflowPolicy) is
//!   lossless, `DropNewest` sheds load with **per-session** counted
//!   drops surfaced in the report.
//! * **Batched ticking** — each worker advances all its live sessions by
//!   one physical round per tick through the engine's round entry point.
//!   Listen-only rounds tick with no allocator calls, across a rekey
//!   too (pinned by a counting-allocator test; the tick loop is a
//!   `detlint` deny-alloc region); a broadcasting round clones its
//!   once-sealed frame onto the air and an acceptance allocates its
//!   plaintext (`docs/SERVICE.md`).
//!
//! ```rust
//! use gateway::{serve, workload, ServiceConfig};
//!
//! let cfg = ServiceConfig::new(4, 2, 18, 1, 2, 3, 7);
//! let report = serve(&cfg, |client| {
//!     for s in 0..cfg.sessions {
//!         for req in workload(&cfg, s) {
//!             client.submit(req);
//!         }
//!     }
//! })
//! .unwrap();
//! assert_eq!(report.outcomes.len(), cfg.sessions);
//! assert_eq!(report.delivered, report.expected, "quiet channel delivers all");
//! ```
//!
//! Architecture notes (worker pinning, queue contract, batching tick):
//! `docs/SERVICE.md`. Load measurements: the `service_load` bench and
//! `BENCH_service.json`.

mod config;
mod jammer;
mod serve;
mod shard;
mod workload;

pub use config::{ServeError, ServiceConfig};
pub use jammer::IntensityJammer;
pub use serve::{serve, Client, GatewayReport, LatencyPercentiles, EGRESS_CAPACITY};
pub use shard::{Delivery, SessionOutcome, WorkerShard};
pub use workload::{
    initial_key, keyed_nodes, session_engine_seed, session_jammer, session_keys, session_plan,
    session_seed, workload, Request,
};
