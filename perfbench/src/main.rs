//! The repository benchmark: the session gateway and f-AME, timed end to
//! end through the entry points users call, and split by layer in a
//! separate traced run that times calls into each layer from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gateway-quiet|gateway-jammed|fame-exchange> \
//!     --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A failed
//! correctness gate prints the reason to standard error and exits with
//! status 1 and no result. Workloads, metrics and their reasons:
//! `perfbench/README.md`.

mod counting;
mod fame_bench;
mod gateway_bench;
mod host;
mod report;
mod shims;

use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOCATOR: counting::CountingAllocator = counting::CountingAllocator;

/// The benchmark's workloads.
#[derive(Clone, Copy)]
enum Workload {
    GatewayQuiet,
    GatewayJammed,
    FameExchange,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "gateway-quiet" => Workload::GatewayQuiet,
                    "gateway-jammed" => Workload::GatewayJammed,
                    "fame-exchange" => Workload::FameExchange,
                    other => return Err(format!("unknown workload {other}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("trace must be 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload, args.trace) {
        (Workload::GatewayQuiet, false) => gateway_bench::run(args.seed, 0, args.seconds),
        (Workload::GatewayJammed, false) => gateway_bench::run(args.seed, 2, args.seconds),
        (Workload::FameExchange, false) => fame_bench::run(args.seed, args.seconds),
        (Workload::GatewayQuiet, true) => gateway_bench::run_traced(args.seed, 0),
        (Workload::GatewayJammed, true) => gateway_bench::run_traced(args.seed, 2),
        (Workload::FameExchange, true) => fame_bench::run_traced(args.seed),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <gateway-quiet|gateway-jammed|fame-exchange> \
                 --seed <u64> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let cpu_before = host::cpu_jiffies();
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: correctness gate failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let threads = host::threads();
    let steal = host::steal_share(cpu_before, host::cpu_jiffies());
    eprintln!("host: threads={threads} steal_share={steal:.4}");
    if args.trace {
        outcome.set("host.threads", threads as f64);
        outcome.set("host.steal_share", steal);
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.json(list, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
