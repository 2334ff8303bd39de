//! Metric names, units and the one-line JSON result.
//!
//! The names and units here must match `BENCHMARK.json` at the root of the
//! repository. Every run prints every metric of its mode: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. A
//! per-layer metric whose layer does no work on a workload reads 0 (for
//! example `crypto.*` on `fame-exchange`, `fame.*` on the gateway).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("msgs_per_s", "msg/s"),
    ("exchanges_per_s", "exchange/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50_rounds", "rounds"),
    ("latency_p99_rounds", "rounds"),
    ("rounds_per_exchange", "rounds"),
    ("delivered_share", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gateway.submit_us_per_req", "us"),
    ("gateway.admit_us_per_req", "us"),
    ("gateway.open_us_per_session", "us"),
    ("gateway.tick_ms_p50", "ms"),
    ("gateway.tick_ms_p99", "ms"),
    ("gateway.allocs_per_session_round", "count"),
    ("longlived.hop_us", "us"),
    ("longlived.seal_us", "us"),
    ("longlived.open_us", "us"),
    ("longlived.hops", "count"),
    ("longlived.seals", "count"),
    ("longlived.opens", "count"),
    ("longlived.accepts", "count"),
    ("longlived.open_useful_ratio", "ratio"),
    ("longlived.seal_useful_ratio", "ratio"),
    ("crypto.hop_ns", "ns"),
    ("crypto.seal_ns", "ns"),
    ("crypto.open_ns", "ns"),
    ("engine.self_ns_per_round", "ns"),
    ("engine.allocs_per_round", "count"),
    ("engine.awake_per_round", "count"),
    ("engine.collisions_per_round", "count"),
    ("adversary.act_ns", "ns"),
    ("fame.node_us_per_round", "us"),
    ("fame.moves_per_exchange", "count"),
    ("fame.setup_us_per_exchange", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.checked_units", "count"),
    ("trace.clock_ns", "ns"),
    ("host.threads", "count"),
    ("host.steal_share", "ratio"),
];

/// What one run measured.
pub struct Outcome {
    /// Operations attempted (requests submitted, or `run_fame` calls).
    pub attempted: u64,
    /// Operations that failed (dropped, rejected, or errored).
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            values: BTreeMap::new(),
        }
    }

    /// Record one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: every metric of `list`, in order. A missing
    /// per-layer metric reads 0; a missing end-to-end metric or a value
    /// that is not finite is a benchmark bug.
    pub fn json(&self, list: &[(&str, &str)], trace: bool) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        ))
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`, the rule
/// `GatewayReport::latency` uses.
pub fn nearest_rank(values: &[f64], p: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        v[(v.len() - 1) * p / 100]
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
