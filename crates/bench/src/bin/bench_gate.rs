//! Throughput-regression gate over the criterion results.
//!
//! Compares `BENCH_engines.json` (produced by `cargo bench -p ssr-bench
//! --bench engines`) against the checked-in `BENCH_engines.baseline.json`
//! and **fails (exit 1) when any productive-step throughput entry drops by
//! more than 2×**. Mean-time entries are reported for context but do not
//! gate.
//!
//! Raw throughput is machine-dependent and the baseline may have been
//! recorded on different hardware (a developer laptop vs a shared CI
//! runner), so when both files contain the calibration entry
//! ([`CALIBRATION_ID`] — a single-threaded, allocation-free workload
//! whose speed tracks raw core performance) every gated throughput is
//! first divided by its run's calibration throughput. The gate then
//! compares *machine-normalised* numbers, so a uniformly slower runner
//! does not trip it — only a genuine relative regression does.
//!
//! Usage: `bench_gate [current.json] [baseline.json]` — defaults to
//! `BENCH_engines.json` and `BENCH_engines.baseline.json` in the working
//! directory. Regenerate the baseline with
//! `cargo bench -p ssr-bench --bench engines && cp BENCH_engines.json
//! BENCH_engines.baseline.json`.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Allowed slow-down factor before the gate trips.
const MAX_REGRESSION: f64 = 2.0;

/// Entry used to normalise out raw machine speed before comparing runs
/// from (possibly) different hardware: 10 000 productive steps of `A_G`
/// at n = 1024 on the count engine's exact mode (batching off). The id
/// keeps its historical `jump_simulator` group name so recorded baselines
/// stay comparable.
const CALIBRATION_ID: &str = "jump_simulator/productive_steps_ag_n1024";

#[derive(Debug, Clone, Copy)]
struct Entry {
    mean_ns: f64,
    elements_per_sec: Option<f64>,
}

/// Extract a numeric field `"key": value` from one JSON-object line
/// (the criterion shim writes one flat object per line — no nesting, so
/// line-oriented extraction is exact for this format).
fn field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn parse(path: &str) -> Result<BTreeMap<String, Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(id) = field_str(line, "id") else {
            continue;
        };
        let Some(mean_ns) = field(line, "mean_ns") else {
            continue;
        };
        out.insert(
            id.to_string(),
            Entry {
                mean_ns,
                elements_per_sec: field(line, "elements_per_sec"),
            },
        );
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark entries found"));
    }
    Ok(out)
}

/// Outcome of comparing one fresh run against one baseline.
#[derive(Debug, Default, PartialEq)]
struct GateReport {
    /// Entries whose machine-normalised throughput dropped beyond
    /// [`MAX_REGRESSION`] — the only thing that fails the gate.
    regressions: usize,
    /// Throughput entries actually compared.
    gated: usize,
    /// Per-key mismatches that cannot gate (baseline key absent from the
    /// fresh run, no calibration, nothing comparable at all). Reported
    /// loudly, never fatal: a renamed bench or a trimmed baseline must
    /// not paint CI red.
    warnings: usize,
}

fn run_gate(current: &BTreeMap<String, Entry>, baseline: &BTreeMap<String, Entry>) -> GateReport {
    // Normalise out raw machine speed when the calibration entry exists
    // in both runs (the baseline may come from different hardware).
    let calibration = match (
        baseline
            .get(CALIBRATION_ID)
            .and_then(|e| e.elements_per_sec),
        current.get(CALIBRATION_ID).and_then(|e| e.elements_per_sec),
    ) {
        (Some(b), Some(c)) if b > 0.0 && c > 0.0 => Some((b, c)),
        _ => None,
    };
    let mut report = GateReport::default();
    println!(
        "bench_gate: gate >{MAX_REGRESSION}× throughput drop, {}",
        match calibration {
            Some((b, c)) => format!(
                "machine-normalised via {CALIBRATION_ID}: current runs at {:.2}× baseline speed",
                c / b
            ),
            None => {
                report.warnings += 1;
                format!(
                    "WARNING: calibration entry '{CALIBRATION_ID}' missing in one file — \
                     comparing raw numbers"
                )
            }
        }
    );
    for (id, base) in baseline {
        let Some(cur) = current.get(id) else {
            println!(
                "  WARNING  {id}: present in baseline, absent in current run (not gated — \
                 regenerate the baseline if this bench was removed or renamed)"
            );
            report.warnings += 1;
            continue;
        };
        if id == CALIBRATION_ID && calibration.is_some() {
            continue; // the yardstick cannot gate itself
        }
        match (base.elements_per_sec, cur.elements_per_sec) {
            (Some(b), Some(c)) if b > 0.0 => {
                report.gated += 1;
                let (b, c) = match calibration {
                    Some((cal_b, cal_c)) => (b / cal_b, c / cal_c),
                    None => (b, c),
                };
                let ratio = c / b;
                let verdict = if ratio * MAX_REGRESSION < 1.0 {
                    report.regressions += 1;
                    "REGRESSED"
                } else {
                    "ok"
                };
                println!("  {verdict:>9}  {id}: {c:.3e} vs baseline {b:.3e} ({ratio:.2}×)");
            }
            _ => {
                // Time-only entry: informational.
                let ratio = base.mean_ns / cur.mean_ns;
                println!(
                    "  {:>9}  {id}: {:.3e} ns vs baseline {:.3e} ns ({ratio:.2}× speed)",
                    "info", cur.mean_ns, base.mean_ns
                );
            }
        }
    }
    for id in current.keys() {
        if !baseline.contains_key(id) {
            println!("  {:>9}  {id}: new entry (no baseline)", "new");
        }
    }
    if report.gated == 0 {
        println!(
            "  WARNING  no throughput entries were comparable — nothing gated \
             (regenerate the baseline)"
        );
        report.warnings += 1;
    }
    report
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let current_path = args.first().map_or("BENCH_engines.json", |s| s.as_str());
    let baseline_path = args
        .get(1)
        .map_or("BENCH_engines.baseline.json", |s| s.as_str());

    // The fresh run must exist — a failed bench step is a real error. A
    // *missing* baseline file only means there is nothing to gate against
    // yet (first run on a new branch, deliberately cleared baseline):
    // warn and pass. A baseline that exists but does not parse is NOT a
    // pass — a typo'd path passes the missing-file check above it, but a
    // corrupted checked-in baseline must not silently disable the gate.
    let current = match parse(current_path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !std::path::Path::new(baseline_path).exists() {
        eprintln!(
            "bench_gate: WARNING: {baseline_path} does not exist — no baseline to gate \
             against, passing"
        );
        return ExitCode::SUCCESS;
    }
    let baseline = match parse(baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: baseline exists but is unusable: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("bench_gate: {current_path} vs {baseline_path}");
    let report = run_gate(&current, &baseline);
    if report.regressions > 0 {
        eprintln!(
            "bench_gate: {} regression(s) beyond {MAX_REGRESSION}×",
            report.regressions
        );
        return ExitCode::FAILURE;
    }
    if report.warnings > 0 {
        println!(
            "bench_gate: {} warning(s), {} throughput entries within {MAX_REGRESSION}×",
            report.warnings, report.gated
        );
    } else {
        println!(
            "bench_gate: all {} throughput entries within {MAX_REGRESSION}×",
            report.gated
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = r#"  {"id": "g/count", "mean_ns": 2718289.0, "min_ns": 1.0, "max_ns": 2.0, "samples": 10, "iters_per_sample": 2, "elements_per_sec": 735756941.2},"#;

    #[test]
    fn extracts_fields_from_shim_lines() {
        assert_eq!(field_str(LINE, "id"), Some("g/count"));
        assert_eq!(field(LINE, "mean_ns"), Some(2_718_289.0));
        assert_eq!(field(LINE, "elements_per_sec"), Some(735_756_941.2));
        assert_eq!(field(LINE, "absent"), None);
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(parse("/nonexistent/BENCH.json").is_err());
    }

    fn entry(tp: Option<f64>) -> Entry {
        Entry {
            mean_ns: 100.0,
            elements_per_sec: tp,
        }
    }

    fn map(entries: &[(&str, Option<f64>)]) -> BTreeMap<String, Entry> {
        entries
            .iter()
            .map(|&(id, tp)| (id.to_string(), entry(tp)))
            .collect()
    }

    /// A baseline key absent from the fresh run degrades to a warning —
    /// renamed or removed benches must not fail the gate.
    #[test]
    fn missing_bench_key_warns_without_regressing() {
        let baseline = map(&[("a/tp", Some(100.0)), ("gone/tp", Some(50.0))]);
        let current = map(&[("a/tp", Some(90.0))]);
        let report = run_gate(&current, &baseline);
        assert_eq!(report.regressions, 0);
        assert_eq!(report.gated, 1);
        // Two warnings: the missing key and the missing calibration entry.
        assert_eq!(report.warnings, 2);
    }

    /// A missing calibration entry falls back to raw comparison (one
    /// warning), still gating genuine regressions.
    #[test]
    fn missing_calibration_still_gates_raw() {
        let baseline = map(&[("a/tp", Some(100.0)), ("b/tp", Some(100.0))]);
        let current = map(&[("a/tp", Some(10.0)), ("b/tp", Some(95.0))]);
        let report = run_gate(&current, &baseline);
        assert_eq!(report.regressions, 1, "10x raw drop must gate");
        assert_eq!(report.gated, 2);
        assert_eq!(report.warnings, 1);
    }

    /// With the calibration entry present in both files, a uniformly
    /// slower machine does not trip the gate.
    #[test]
    fn calibrated_uniform_slowdown_passes() {
        let baseline = map(&[(CALIBRATION_ID, Some(1000.0)), ("a/tp", Some(100.0))]);
        let current = map(&[(CALIBRATION_ID, Some(250.0)), ("a/tp", Some(25.0))]);
        let report = run_gate(&current, &baseline);
        assert_eq!(report.regressions, 0);
        assert_eq!(report.warnings, 0);
    }

    /// Nothing comparable at all: warn, never regress.
    #[test]
    fn no_comparable_entries_warns() {
        let baseline = map(&[("time_only", None)]);
        let current = map(&[("time_only", None)]);
        let report = run_gate(&current, &baseline);
        assert_eq!(report.regressions, 0);
        assert_eq!(report.gated, 0);
        assert!(report.warnings >= 1);
    }
}
