//! `paper-sp64`: the simulator at the paper's IBM-SP Figure 9 point
//! (n = 64, non-critical : critical ratio 25), where log n and n differ
//! enough for the message claim to show.
//!
//! The measured phase runs whole simulations back to back on one worker
//! thread, each on its own seed drawn from the run's seed. Latency is the
//! simulated per-request wait of the first [`LATENCY_RUNS`] of those
//! simulations, re-run with a span recorder (the simulator is
//! deterministic, so the re-run must repeat its message count exactly).
//! The correctness gate re-derives the committed Figure 9 cell.

use crate::layers;
use crate::measure::{median, CpuMark, HostSpeed, Rng, Samples, CALIBRATION_REF_S as CAL_REF_S};
use crate::{Config, Report};
use dlm_core::Mode;
use dlm_trace::{ProtocolEvent, Recorder};
use dlm_workload::{run_workload, run_workload_traced, OpKind, WorkloadParams};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

const NODES: usize = 64;
const RATIO: u32 = 25;
/// Simulations whose request waits make up the latency sample.
const LATENCY_RUNS: usize = 32;
/// Set-ups per run (each a warm-up simulation); `setup_s` is their median.
const SETUPS: usize = 9;
/// Where the committed figure lives, relative to the checkout root.
const FIG9_TSV: &str = "results/fig9.tsv";

fn params(seed: u64) -> WorkloadParams {
    let mut p = WorkloadParams::ibm_sp(NODES, RATIO);
    p.seed = seed;
    p
}

/// Request spans (`RequestStart` → `RequestGrant`) in simulated µs.
#[derive(Default)]
struct SpanRecorder {
    open: HashMap<u64, u64>,
    waits: Samples,
}

impl Recorder for SpanRecorder {
    fn record(&mut self, at: u64, _lock: u32, _node: u32, event: ProtocolEvent) {
        match event {
            ProtocolEvent::RequestStart { req, .. } => {
                self.open.insert(req, at);
            }
            ProtocolEvent::RequestGrant { req, .. } => {
                if let Some(start) = self.open.remove(&req) {
                    self.waits.push((at - start) as f64);
                }
            }
            _ => {}
        }
    }
}

/// What the measured phase keeps of one simulation.
struct Sim {
    /// Calibration pass timed just before the simulation.
    calib: f64,
    wall_s: f64,
    seed: u64,
    complete: bool,
    expected: u64,
    ops: u64,
    messages: u64,
    requests: u64,
    rules: dlm_metrics::CounterSet,
}

/// The committed Figure 9 value at (n = 64, ratio = 25).
fn committed_cell() -> Result<f64, String> {
    let text = std::fs::read_to_string(FIG9_TSV).map_err(|e| format!("{FIG9_TSV}: {e}"))?;
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().unwrap_or_default().split('\t').collect();
    let col = header
        .iter()
        .position(|h| *h == format!("ratio={RATIO}"))
        .ok_or("no ratio column")?;
    lines
        .map(|l| l.split('\t').collect::<Vec<_>>())
        .find(|row| row.first() == Some(&NODES.to_string().as_str()))
        .and_then(|row| row.get(col)?.parse().ok())
        .ok_or_else(|| format!("no n={NODES} row in {FIG9_TSV}"))
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(cfg.seed);
    let seeds: Vec<u64> = (0..100_000).map(|_| rng.next_u64()).collect();

    let mut setups = Vec::new();
    let mut warm_speed = HostSpeed::default();
    for &seed in &seeds[..SETUPS] {
        let calib = warm_speed.sample();
        let start = Instant::now();
        std::hint::black_box(run_workload(&params(seed)));
        let took = start.elapsed();
        setups.push(took.as_secs_f64() / calib * CAL_REF_S);
    }
    report.set("setup_s", median(setups.clone()));
    report.set("setup.warm_ms", median(setups) * 1e3);

    // Measured phase, on a worker thread so the caller (the generator, here
    // idle) is excluded from the CPU account. Each simulation is timed on
    // its own; throughput is read off the median simulation, so a transient
    // stall of the host moves it less than a sum would.
    let cpu = CpuMark::now();
    let sims = std::thread::scope(|s| {
        s.spawn(|| {
            let mut speed = HostSpeed::default();
            let start = Instant::now();
            let mut sims = Vec::new();
            while start.elapsed() < cfg.seconds && sims.len() < seeds.len() {
                let calib = speed.sample();
                let begin = Instant::now();
                let r = run_workload(&params(seeds[sims.len()]));
                let wall_s = begin.elapsed().as_secs_f64();
                // Pause as long as the simulation took: a shared host slows
                // a guest that keeps a core busy for seconds on end, and
                // the half duty cycle keeps successive runs in agreement.
                std::thread::sleep(Duration::from_secs_f64(wall_s));
                sims.push(Sim {
                    calib,
                    wall_s,
                    seed: r.params.seed,
                    complete: r.complete() && r.quiesced,
                    expected: r.ops_expected,
                    ops: r.ops_completed,
                    messages: r.messages,
                    requests: r.requests,
                    rules: r.rule_counters,
                });
            }
            sims
        })
        .join()
        .expect("simulation thread panicked")
    });
    let cpu_s = cpu.others_s();
    report.check(sims.len() >= LATENCY_RUNS, || {
        format!("only {} simulations in the measured phase", sims.len())
    });
    let (mut ops, mut messages, mut requests, mut wall) = (0u64, 0u64, 0u64, 0.0);
    for r in &sims {
        report.check(r.complete, || {
            format!("simulation seed {} incomplete", r.seed)
        });
        report.attempted += r.expected;
        report.failed += r.expected - r.ops.min(r.expected);
        ops += r.ops;
        messages += r.messages;
        requests += r.requests;
        wall += r.wall_s;
    }
    // Compute-bound: read at the reference host speed. Each simulation is
    // paired with the calibration pass run just before it on its thread.
    let raw_per_sim = median(sims.iter().map(|r| r.wall_s).collect());
    let per_sim = median(sims.iter().map(|r| r.wall_s / r.calib).collect()) * CAL_REF_S;
    let slowdown = raw_per_sim / per_sim;
    report.set("host.slowdown", slowdown);
    let ops_per_sim = ops as f64 / sims.len().max(1) as f64;
    report.set("ops_per_s", ops_per_sim / per_sim);
    report.set("cpu_us_per_op", cpu_s * 1e6 / ops.max(1) as f64 / slowdown);
    report.set("sim.msgs_per_s", messages as f64 / wall);
    report.set(
        "wire.msgs_per_acquire",
        messages as f64 / requests.max(1) as f64,
    );

    let mut waits = Samples::default();
    for r in sims.iter().take(LATENCY_RUNS) {
        let spans = Rc::new(RefCell::new(SpanRecorder::default()));
        let again = run_workload_traced(
            &params(r.seed),
            Some(Rc::clone(&spans) as Rc<RefCell<dyn Recorder>>),
        );
        report.check(again.messages == r.messages, || {
            format!("seed {} not deterministic", r.seed)
        });
        waits.extend(std::mem::take(&mut spans.borrow_mut().waits));
    }
    report.set_latency(&mut waits);

    if cfg.trace {
        let mut rules = sims[0].rules.clone();
        for r in &sims[1..] {
            rules.merge(&r.rules);
        }
        let acquires = requests.max(1) as f64;
        layers::set_rules(&mut report, acquires, |label| rules.get(label) as f64);
        // Table-lock modes of the paper mix, issued round-robin.
        let mut rng = Rng::new(cfg.seed);
        let ops: Vec<(u32, Mode)> = (0..20_000)
            .map(|i| (i % NODES as u32, table_mode(&mut rng)))
            .collect();
        layers::replay(&mut report, NODES, &ops);
    }

    // Correctness gate: the figure's own seeds reproduce the committed cell.
    match committed_cell() {
        Ok(cell) => {
            let per_seed: Vec<f64> = (0..3u64)
                .map(|s| run_workload(&params(0xFEED + s * 7919)).messages_per_request())
                .collect();
            let mean = per_seed.iter().sum::<f64>() / per_seed.len() as f64;
            report.check((mean - cell).abs() <= 1e-9 * cell, || {
                format!("Figure 9 cell: got {mean}, committed {cell}")
            });
        }
        Err(e) => report.errors.push(e),
    }
    report
}

/// The table-lock mode of one operation drawn from the paper's mix (the
/// draw `OpKind::sample` makes, on this benchmark's generator).
pub fn table_mode(rng: &mut Rng) -> Mode {
    paper_op(rng).table_mode()
}

/// One operation kind drawn from `ModeMix::paper()`.
pub fn paper_op(rng: &mut Rng) -> OpKind {
    let mix = dlm_workload::ModeMix::paper();
    let roll = rng.below(100) as u32;
    let bounds = [
        (mix.ir, OpKind::ReadEntry),
        (mix.r, OpKind::ReadTable),
        (mix.u, OpKind::UpgradeTable),
        (mix.iw, OpKind::WriteEntry),
    ];
    let mut edge = 0u32;
    for (share, kind) in bounds {
        edge += share as u32;
        if roll < edge {
            return kind;
        }
    }
    OpKind::WriteTable
}
