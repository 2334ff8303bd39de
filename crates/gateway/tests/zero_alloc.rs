//! Counting-allocator proof of the gateway's listen-only claim: after the
//! opening (broadcasting) epoch has warmed every buffer, **a multi-session
//! tick over listen-only rounds performs zero heap allocations, across a
//! rekey too** — the engine round, each keyed node's PRF channel hop on
//! its cached hopper, the rekey itself (the schedule pop and the hopper
//! rebuilt in place; a sender's cached frame is kept and goes stale by
//! its nonce, not dropped), the acceptance-cursor drain, and the
//! pre-sized transcript pushes all stay off the allocator, across every
//! live session the shard owns. Broadcasting rounds are outside the
//! window: sealing once per emulated round, cloning the frame onto the
//! air each round, and a listener's first open allocate.
//!
//! The file holds exactly one `#[test]` so no sibling test can allocate
//! on another thread inside a measurement window (the same discipline as
//! `radio-network/tests/zero_alloc.rs`, which pins the engine layer this
//! builds on).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gateway::{keyed_nodes, Request, ServiceConfig, WorkerShard};
use radio_crypto::key::SymmetricKey;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts every allocator event, then delegates to the system allocator.
struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the counters are lock-free
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn snapshot() -> (u64, u64, u64) {
    (
        ALLOCS.load(Ordering::SeqCst),
        REALLOCS.load(Ordering::SeqCst),
        DEALLOCS.load(Ordering::SeqCst),
    )
}

/// Allocator events (allocs, reallocs, deallocs) while `f` runs.
fn allocator_events(f: impl FnOnce()) -> (u64, u64, u64) {
    let before = snapshot();
    f();
    let after = snapshot();
    (after.0 - before.0, after.1 - before.1, after.2 - before.2)
}

const SESSIONS: usize = 8;
/// Physical rounds per emulated round of `Params(18, 1, 2)`.
const EPOCH: u64 = 35;
/// Ticks before the measured window: the whole broadcasting epoch
/// (seal/open allocations, acceptance pushes, arena high-water marks)
/// plus a few rounds of the listening regime.
const WARM_UP: u64 = EPOCH + 5;
/// Ticks in the measured window: physical rounds 40..75, strictly inside
/// the session lifetime (3 epochs) and spanning the boundary between
/// emulated rounds 1 and 2 (round 70), where every session rekeys.
const WINDOW: u64 = EPOCH;

/// One shard owning 8 sessions of the minimal long-lived shape
/// (n = 18, t = 1, C = 2), horizon 3 emulated rounds. Every session
/// broadcasts at emulated round 0 and then listens, and rotates its group
/// key at emulated round 2 — so the measured window exercises the steady
/// state a long-lived service actually lives in: all nodes hopping and
/// listening, acceptance logs quiet, jammer idle, and a group-wide rekey.
/// Returns the shard after the window, with the window's allocator events.
fn warmed_up_window() -> (WorkerShard, (u64, u64, u64)) {
    let cfg = ServiceConfig::new(SESSIONS, 1, 18, 1, 2, 3, 77);
    let mut shard = WorkerShard::new(&cfg, 0).expect("shard opens");
    for s in 0..SESSIONS {
        let keyed = keyed_nodes(&cfg, s);
        let sender = (0..cfg.n).find(|&v| keyed[v]).expect("some node is keyed");
        shard.admit(Request::Broadcast {
            session: s,
            sender,
            eround: 0,
            payload: vec![0xAB; 11],
        });
        shard.admit(Request::Rekey {
            session: s,
            eround: 2,
            key: SymmetricKey::from_bytes([0xC0 | s as u8; 32]),
        });
    }
    assert_eq!(shard.rejected(), 0);
    shard.open_sessions().expect("sessions open");
    assert_eq!(shard.live_sessions(), SESSIONS);
    for _ in 0..WARM_UP {
        shard.tick().expect("tick");
    }
    let events = allocator_events(|| {
        for _ in 0..WINDOW {
            shard.tick().expect("tick");
        }
    });
    (shard, events)
}

const _: () = assert!(WARM_UP < 2 * EPOCH && 2 * EPOCH < WARM_UP + WINDOW);

#[test]
fn steady_state_multi_session_tick_allocates_nothing() {
    // A polluted window is retried on a fresh shard, so every attempt
    // spans the rekey (libtest background threads may lazily allocate
    // once; a real regression dirties every window).
    let mut shard = None;
    for attempt in 1..=3 {
        let (warmed, events) = warmed_up_window();
        if events == (0, 0, 0) {
            shard = Some(warmed);
            break;
        }
        eprintln!(
            "attempt {attempt}: the 8-session tick across a rekey hit the allocator \
             (allocs={}, reallocs={}, deallocs={})",
            events.0, events.1, events.2
        );
    }
    let mut shard = shard.expect("steady-state gateway ticks hit the allocator in every window");

    // The window measured live work, and the sessions still finish
    // correctly afterwards: every broadcast reaches every other keyed
    // node.
    assert_eq!(shard.live_sessions(), SESSIONS);
    while shard.live_sessions() > 0 {
        shard.tick().expect("tick");
    }
    let outcomes = shard.take_outcomes();
    assert_eq!(outcomes.len(), SESSIONS);
    for o in &outcomes {
        assert!(o.expected > 0);
        assert_eq!(
            o.delivered, o.expected,
            "session {} dropped deliveries on a quiet channel",
            o.session
        );
    }
}
