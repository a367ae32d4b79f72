//! The repository benchmark: four workloads over the lock service's public
//! APIs, each printing its end-to-end metrics (untraced run) or per-layer
//! metrics (traced run) as one JSON line. See `README.md` for the workload
//! rationale and the layer map.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload local-churn --seed 1 --seconds 10 --trace 0
//! ```

mod airline;
mod churn;
mod layers;
mod measure;
mod sp64;
mod wire;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Every metric the benchmark prints: name, unit, and whether it belongs
/// to the per-layer (traced) set rather than the end-to-end set.
const METRICS: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("ops_per_s", "1/s", false),
    ("peak_rss_mb", "MB", false),
    ("grant_p50_us", "us", true),
    ("cpu_us_per_op", "us", true),
    ("knee_ops_per_s", "1/s", true),
    ("wire.msgs_per_acquire", "msgs", true),
    ("wire.bytes_per_acquire", "B", true),
    ("ops.failed_share", "ratio", true),
    ("idle.cpu_pct", "%", true),
    ("grant.p99_us", "us", true),
    ("grant.samples", "count", true),
    ("grant.beyond_p99", "count", true),
    ("handle.submit_ns", "ns", true),
    ("handle.flush_ns", "ns", true),
    ("handle.ops_per_flush", "ops", true),
    ("handle.recv_wait_us", "us", true),
    ("shard.queue_depth_p99", "ops", true),
    ("shard.rejections", "count", true),
    ("runtime.worker_grant_p50_us", "us", true),
    ("runtime.hops_mean", "hops", true),
    ("runtime.quiesce_ms", "ms", true),
    ("core.step_ns", "ns", true),
    ("core.msgs_per_acquire", "msgs", true),
    ("rules.token_moves_per_acquire", "ratio", true),
    ("rules.child_grant_share", "ratio", true),
    ("rules.forwards_per_acquire", "ratio", true),
    ("rules.freezes_per_acquire", "ratio", true),
    ("codec.encode_ns", "ns", true),
    ("codec.decode_ns", "ns", true),
    ("codec.bytes_per_msg", "B", true),
    ("coalesce.msgs_per_frame", "ratio", true),
    ("reliable.retransmits_per_kmsg", "count", true),
    ("reliable.useful_ratio", "ratio", true),
    ("reliable.acks_per_data", "ratio", true),
    ("transport.drop_rate", "ratio", true),
    ("socket.frames_per_acquire", "ratio", true),
    ("socket.bytes_per_frame", "B", true),
    ("socket.resets", "count", true),
    ("socket.kernel_rtt_us", "us", true),
    ("recovery.detect_ms", "ms", true),
    ("recovery.repair_ms", "ms", true),
    ("recovery.regrant_ms", "ms", true),
    ("recovery.total_ms", "ms", true),
    ("sim.msgs_per_s", "1/s", true),
    ("setup.build_ms", "ms", true),
    ("setup.connect_ms", "ms", true),
    ("setup.warm_ms", "ms", true),
    ("gen.lag_p99_us", "us", true),
    ("trace.overhead_pct", "%", true),
    ("host.slowdown", "ratio", true),
];

/// Idle time before each workload run.
const SETTLE: Duration = Duration::from_secs(5);

/// What one workload run is asked to do.
#[derive(Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Traced run: benchmark-side span timers and layer probes on.
    pub trace: bool,
    /// `ClusterConfig::coalesce` for the in-process cluster workload.
    pub coalesce: bool,
    /// Use `ReliableConfig::wan()` instead of `in_process()` for the
    /// in-process cluster workload.
    pub wan_rto: bool,
}

/// The outcome of one workload run.
#[derive(Default)]
pub struct Report {
    /// Application operations attempted in the measured phases.
    pub attempted: u64,
    /// Attempted operations that failed, were refused or timed out.
    pub failed: u64,
    /// Correctness-gate violations; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Sample counts behind the latency percentiles.
    pub samples: usize,
    pub beyond_p99: usize,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(METRICS.iter().any(|m| m.0 == name), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Record a correctness violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// The correctness gate on a shut-down in-process cluster. Fenced
    /// frames are expected only after a crash recovery.
    pub fn gate_cluster(&mut self, r: &dlm_cluster::ClusterReport, recovered: bool) {
        self.check(r.audit_errors.is_empty(), || {
            format!(
                "audit: {:?}",
                &r.audit_errors[..r.audit_errors.len().min(3)]
            )
        });
        self.check(
            r.decode_errors == 0 && r.replies_dropped == 0 && r.workers_died == 0,
            || {
                format!(
                    "decode_errors {} replies_dropped {} workers_died {}",
                    r.decode_errors, r.replies_dropped, r.workers_died
                )
            },
        );
        self.check(recovered || r.frames_fenced == 0, || {
            format!("frames_fenced {}", r.frames_fenced)
        });
    }

    /// Set the gated latency percentiles from raw samples (µs), requiring
    /// at least ten samples beyond p99.
    pub fn set_latency(&mut self, lat: &mut measure::Samples) {
        let p50 = lat.percentile(0.50);
        let p99 = lat.percentile(0.99);
        match (p50, p99) {
            (Some((p50, _)), Some((p99, beyond))) => {
                self.set("grant_p50_us", p50);
                self.set("grant.p99_us", p99);
                self.samples = lat.len();
                self.beyond_p99 = beyond;
                self.check(beyond >= 10, || {
                    format!("only {beyond} samples beyond p99 (need 10)")
                });
            }
            _ => self.errors.push("no latency samples".into()),
        }
    }
}

/// A workload: runs for `Config::seconds` and reports.
type Workload = fn(&Config) -> Report;

const WORKLOADS: &[(&str, Workload)] = &[
    ("local-churn", churn::run),
    ("wire-handoff", wire::run),
    ("airline-mix", airline::run),
    ("paper-sp64", sp64::run),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--coalesce <0|1>] [--rto <in-process|wan>]",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut config = Config {
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        coalesce: true,
        wan_rto: false,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = WORKLOADS.iter().find(|w| w.0 == value);
                workload.is_some()
            }
            "--seed" => value.parse().map(|s| config.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0 && *s <= 600.0)
                .map(|s| config.seconds = Duration::from_secs_f64(s))
                .is_some(),
            "--trace" => matches!(value.as_str(), "0" | "1")
                .then(|| config.trace = value == "1")
                .is_some(),
            "--coalesce" => matches!(value.as_str(), "0" | "1")
                .then(|| config.coalesce = value == "1")
                .is_some(),
            "--rto" => matches!(value.as_str(), "in-process" | "wan")
                .then(|| config.wan_rto = value == "wan")
                .is_some(),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(&(name, run)) = workload else {
        return usage();
    };

    let run = |config: &Config| {
        // A shared host runs a guest slower for seconds after it kept its
        // cores or memory busy; let a previous run's load drain first.
        std::thread::sleep(SETTLE);
        run(config)
    };
    let report = if config.trace {
        // The traced run is paired with an untraced one of the same length
        // so the cost of the span timers and probes shows as an overhead.
        let half = Config {
            seconds: config.seconds / 2,
            ..config
        };
        let plain = run(&Config {
            trace: false,
            ..half
        });
        let mut traced = run(&half);
        let (base, with) = (plain.get("grant_p50_us"), traced.get("grant_p50_us"));
        traced.set("trace.overhead_pct", 100.0 * (with - base) / base);
        traced.errors.extend(plain.errors);
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        traced
    } else {
        run(&config)
    };
    print_report(name, &config, report);
    ExitCode::SUCCESS
}

fn print_report(workload: &str, config: &Config, mut report: Report) {
    report.set("peak_rss_mb", measure::peak_rss_mb());
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("ops.failed_share", share);
    report.set("grant.samples", report.samples as f64);
    report.set("grant.beyond_p99", report.beyond_p99 as f64);
    report.check(report.attempted > 0, || "no operation attempted".into());
    for &(name, _, layer) in METRICS {
        if !layer {
            let v = report.get(name);
            report.check(v.is_finite() && v > 0.0, || format!("{name} = {v}"));
        }
    }
    for e in &report.errors {
        eprintln!("perfbench: correctness: {e}");
    }

    println!(
        "{workload} seed={} trace={} ({} latency samples, {} beyond p99; host slowdown {:.3})",
        config.seed,
        config.trace as u8,
        report.samples,
        report.beyond_p99,
        report.get("host.slowdown")
    );
    let mut json = String::new();
    for &(name, unit, layer) in METRICS {
        if layer != config.trace {
            continue;
        }
        let mut v = report.get(name);
        if !v.is_finite() {
            eprintln!("perfbench: correctness: {name} is not a number");
            report.errors.push(format!("{name} = {v}"));
            v = 0.0;
        }
        println!("  {name:<32} {v:>16.4} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        report.errors.is_empty(),
        report.attempted.max(1),
        report.failed
    );
}
