//! What every workload hands back, the statistics the metrics are built
//! from, and the result line the benchmark prints last.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// The metric catalogue: names, units and directions of every metric the
/// benchmark reports, compiled in so the printed result line always names
/// exactly the metrics `BENCHMARK.json` declares.
const CATALOGUE: &str = include_str!("../../BENCHMARK.json");

/// The layer → end-to-end prediction map (`predictions.json`).
const PREDICTIONS: &str = include_str!("../predictions.json");

/// One metric declared in `BENCHMARK.json`.
struct MetricSpec {
    name: String,
    unit: String,
}

fn string_field(value: &Value, key: &str) -> String {
    match value.field(key) {
        Ok(Value::String(s)) => s.clone(),
        _ => panic!("BENCHMARK.json: missing string field `{key}`"),
    }
}

/// The metrics of one section (`end_to_end` or `per_layer`).
fn declared_metrics(section: &str) -> Vec<MetricSpec> {
    let catalogue = serde_json::parse_value(CATALOGUE).expect("BENCHMARK.json parses");
    let Ok(Value::Array(entries)) = catalogue.field(section) else {
        panic!("BENCHMARK.json: `{section}` is not an array");
    };
    entries
        .iter()
        .map(|entry| MetricSpec {
            name: string_field(entry, "name"),
            unit: string_field(entry, "unit"),
        })
        .collect()
}

/// The prediction recorded for a per-layer metric: which end-to-end metric
/// it should move, and on which workload.
fn prediction_for(metric: &str) -> Option<String> {
    let predictions = serde_json::parse_value(PREDICTIONS).expect("predictions.json parses");
    let Ok(Value::Array(layers)) = predictions.field("layers") else {
        return None;
    };
    layers
        .iter()
        .find(|layer| {
            let Ok(Value::Array(metrics)) = layer.field("metrics") else {
                return false;
            };
            metrics
                .iter()
                .any(|m| matches!(m, Value::String(s) if metric.starts_with(s.as_str())))
        })
        .map(|layer| string_field(layer, "moves"))
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Run {
    /// Operations attempted (scenarios or requests).
    pub attempted: u64,
    /// Operations that failed (unsound/crashed scenarios, error or
    /// missing responses).
    pub failed: u64,
    /// Every correctness or fidelity check that did not hold.
    pub problems: Vec<String>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    /// Records a failed check.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    /// Records a check: `ok` or else the message.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.problem(message());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a traced ledger (each stage's self time, the traced wall
    /// time, the part no stage accounts for, the traced/untraced ratio and
    /// the process's peak RSS) and prints the stages slowest first, each
    /// with the end-to-end metric it should move.
    pub fn ledger(&mut self, stages: &[(&'static str, f64)], traced: f64, untraced: f64) {
        let attributed: f64 = stages.iter().map(|(_, seconds)| seconds).sum();
        let mut rows = stages.to_vec();
        rows.push(("trace.unattributed_s", traced - attributed));
        for &(name, seconds) in &rows {
            self.set(name, seconds);
        }
        self.set("trace.total_s", traced);
        self.set("trace.overhead_ratio", ratio(traced, untraced));
        self.set("process.peak_rss_mb", peak_rss_mb());
        println!("  traced {traced:.3}s, untraced {untraced:.3}s");
        println!("  {:<34} {:>10} {:>7}  moves", "stage", "seconds", "share");
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, seconds) in rows {
            println!(
                "  {:<34} {:>10.4} {:>6.1}%  {}",
                name,
                seconds,
                100.0 * ratio(seconds, traced),
                prediction_for(name).unwrap_or_default()
            );
        }
    }

    /// Whether every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its value with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, secs(start))
}

/// `numerator / denominator`, or 0 for an empty denominator.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The `q`-quantile of `values` with linear interpolation between closest
/// ranks (0.0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    sorted[lower] + (sorted[upper] - sorted[lower]) * (position - lower as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set size in MiB (`VmHWM`), 0.0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The min-plus operator counts of a serialized `OpCounters` value, read
/// field by field so a renamed or dropped counter removes a ledger row
/// rather than breaking the build.
pub fn op_counts(counters: &impl serde::Serialize) -> BTreeMap<String, u64> {
    match counters.to_value() {
        Value::Object(fields) => fields
            .into_iter()
            .filter_map(|(name, value)| match value {
                Value::UInt(n) => Some((name, n)),
                _ => None,
            })
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// A finite JSON number: Rust's shortest round-trip formatting never uses
/// an exponent, so the text is valid JSON as it stands.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Prints the human-readable metric lines and then the result line, whose
/// metrics are exactly those `BENCHMARK.json` declares for the section.  A
/// declared metric the workload does not exercise reads 0.
pub fn print_result(run: &Run, section: &str) {
    let specs = declared_metrics(section);
    for spec in &specs {
        let value = run.metrics.get(&spec.name).copied().unwrap_or(0.0);
        println!("  {:<40} {:>16.6} {}", spec.name, value, spec.unit);
    }
    for problem in &run.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let metrics: Vec<String> = specs
        .iter()
        .map(|spec| {
            let value = run.metrics.get(&spec.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                spec.name,
                json_number(value),
                spec.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.correct(),
        run.attempted,
        run.failed,
        metrics.join(", ")
    );
}
