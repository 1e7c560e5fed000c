//! Result collection: order statistics, named metrics, correctness
//! tallies, and the final one-line JSON object.

use crate::trace::{AdvanceTally, Ledger};
use std::fmt::Write as _;

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor();
    let frac = pos - lo;
    // `pos` lies in [0, len - 1], so both indices are in range.
    #[allow(clippy::cast_possible_truncation)]
    let lo = lo as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * frac
}

/// The end-to-end metrics every workload reports, with timings already
/// scaled to reference machine speed (see `calib`).
pub struct EndToEnd {
    /// Seconds of one uncached unit of work.
    pub run_s: f64,
    /// Seconds per job as a client sees it.
    pub job_s: f64,
    /// Productive interactions per second of uncached work.
    pub productive_per_s: f64,
    /// Median set-up seconds.
    pub setup_s: f64,
}

impl EndToEnd {
    /// Print every metric and add it to the JSON line; `failed_frac` is
    /// printed only (it is 0 on a correct program).
    pub fn emit(&self, report: &mut Report) {
        report.metric("run_s", self.run_s, "s");
        report.metric("job_s", self.job_s, "s");
        report.metric("productive_per_s", self.productive_per_s, "1/s");
        report.metric("setup_s", self.setup_s, "s");
        report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
        report.extra("failed_frac", report.failed_frac(), "fraction");
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics for the final JSON line, in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Runs or jobs whose outputs were checked.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
}

impl Report {
    /// Record a metric for the JSON line and print it by name and unit.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name, value, unit));
    }

    /// Print a metric by name and unit without adding it to the JSON line
    /// (metrics that exist on this workload only).
    pub fn extra(&self, name: &str, value: f64, unit: &str) {
        println!("metric {name} = {value} {unit}");
    }

    /// Record one checked output; print `what` when the check failed.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    /// Failed checks over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The final line: `correct`, `attempted`, `failed`, and `metrics`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a non-finite value is a bug
            // upstream and reads as 0 rather than breaking the line.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The checkpoint layers, in the order `run_job` calls them.
const CHECKPOINT_LAYERS: [&str; 7] = [
    "engine.snapshot_s",
    "wire.encode_s",
    "wire.bytes",
    "store.save_s",
    "store.latest_s",
    "wire.decode_s",
    "engine.restore_s",
];

/// The per-layer metrics every workload reports.
pub fn emit_layers(report: &mut Report, ledger: &Ledger, tally: &AdvanceTally, productive: u64) {
    report.metric("setup.protocol_s", ledger.busy("setup.protocol_s"), "s");
    report.metric("setup.engine_s", ledger.busy("setup.engine_s"), "s");
    let batch_s = tally.batch_busy.as_secs_f64();
    let exact_s = tally.exact_busy.as_secs_f64();
    report.metric("count.batch.calls", tally.batch_calls as f64, "count");
    report.metric("count.batch.draws", tally.batch_draws as f64, "count");
    report.metric(
        "count.batch_share",
        ratio(tally.batch_draws as f64, productive as f64),
        "fraction",
    );
    report.metric("count.batch.busy_s", batch_s, "s");
    report.metric(
        "count.batch.ns_per_draw",
        ratio(batch_s * 1e9, tally.batch_draws as f64),
        "ns",
    );
    report.metric("count.exact.calls", tally.exact_calls as f64, "count");
    // A workload without exact steps (loose_budget) has no exact time:
    // the JSON line carries the exact path as a share and a rate, which
    // read 0 there, and the times go to the human-readable lines.
    report.metric(
        "count.exact.busy_frac",
        ratio(exact_s, exact_s + batch_s),
        "fraction",
    );
    report.metric(
        "count.exact.steps_per_s",
        ratio(tally.exact_calls as f64, exact_s),
        "1/s",
    );
    report.extra("count.exact.busy_s", exact_s, "s");
    report.extra(
        "count.exact.ns_per_step",
        ratio(exact_s * 1e9, tally.exact_calls as f64),
        "ns",
    );
    report.metric("count.productive", productive as f64, "count");
    report.metric("ckpt.count", ledger.calls("store.save_s") as f64, "count");
    for layer in CHECKPOINT_LAYERS {
        let unit = if layer == "wire.bytes" { "B" } else { "s" };
        report.metric(layer, ledger.busy(layer), unit);
    }
}

/// `trace.*`: traced wall, the sum of its layer times, and how far apart
/// the traced and untraced walls are.
pub fn emit_trace_bookkeeping(
    report: &mut Report,
    untraced_wall: f64,
    traced_wall: f64,
    layer_sum: f64,
) {
    report.metric("trace.wall_s", traced_wall, "s");
    report.metric("trace.layer_sum_s", layer_sum, "s");
    report.metric(
        "trace.unattributed_frac",
        1.0 - ratio(layer_sum, traced_wall),
        "fraction",
    );
    report.metric(
        "trace.overhead_frac",
        ratio(traced_wall, untraced_wall) - 1.0,
        "fraction",
    );
}
