//! `local-churn`: the service path of one member. An open-loop generator
//! offers Write acquire/release pairs over a million uniformly random
//! locks through one `Pipeline` to a single-shard member; no message
//! leaves the member.
//!
//! Latency is read at the fixed [`NOMINAL_RATE`]. The traced run first
//! finds the knee: the highest offered rate, by bisection to within 5%,
//! whose median latency stays under 1 ms with less than 5 ms of work left
//! queued. (A p99 limit cannot define it on a shared host: preemptions of
//! several milliseconds decide any open-loop p99 of a microsecond service.)

use crate::layers;
use crate::measure::{median, CpuMark, HostSpeed, Rng, Samples, Span, Spans};
use crate::{Config, Report};
use dlm_cluster::{Cluster, ClusterConfig, LockId, Mode, Pipeline, ReliableConfig};
use std::time::{Duration, Instant};

/// Locks in the key space: a working set far larger than the caches.
const LOCKS: u32 = 1_000_000;
/// Offered rate at which latency is read, ops/s: a little under half the
/// knee measured on a 2-vCPU x86-64 host.
const NOMINAL_RATE: f64 = 120_000.0;
/// Latency limit that defines the knee.
const KNEE_P50_US: f64 = 1_000.0;
/// Length of one knee probe.
const PROBE: Duration = Duration::from_millis(250);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Shard ingress bound: about four seconds of load at the nominal rate.
/// With the default (8192 operations, 34 ms of load) a stall of the host
/// longer than that sheds operations as `Overloaded`, and how many depends
/// on the host rather than the program; stalls are charged to latency
/// instead.
const SHARD_QUEUE: usize = 1 << 20;
/// Completion tag bit marking a release (the rest is the op index).
const RELEASE: u64 = 1 << 63;

fn config(cfg: &Config) -> ClusterConfig {
    ClusterConfig {
        nodes: 1,
        locks: LOCKS as usize,
        shards: 1,
        shard_queue: SHARD_QUEUE,
        coalesce: cfg.coalesce,
        reliable: cfg.wan_rto.then(ReliableConfig::wan),
        ..Default::default()
    }
}

/// One open-loop phase at a fixed offered rate.
#[derive(Default)]
struct Phase {
    /// Latency of every acquire, µs from its scheduled time to its grant.
    latency: Samples,
    /// How late the generator submitted each op, µs.
    lag: Samples,
    /// Ops scheduled.
    scheduled: u64,
    /// Ops (acquire and release) completed.
    done: u64,
    /// Ops refused or failed.
    failed: u64,
    /// Acquires not yet granted when the window closed.
    backlog: u64,
    /// Operations submitted (acquires and releases) and flushes issued.
    submits: u64,
    flushes: u64,
    /// Shard queue depth, sampled every 10 ms when a member is given.
    depth: Samples,
    /// Wall time of the window plus the final drain.
    elapsed: Duration,
}

/// Tracks which locks have an op in flight (one bit per lock).
struct Busy(Vec<u64>);

impl Busy {
    fn flip(&mut self, l: u32) {
        self.0[l as usize / 64] ^= 1 << (l % 64);
    }

    fn get(&self, l: u32) -> bool {
        self.0[l as usize / 64] >> (l % 64) & 1 == 1
    }
}

struct Generator {
    pipe: Pipeline,
    busy: Busy,
    rng: Rng,
    spans: Spans,
    /// Completions taken from the pipeline.
    completions: u64,
}

impl Generator {
    /// Offer `rate` ops/s for `window`, then drain. Stops early (as a
    /// failed probe) once the backlog exceeds `abort_backlog` ops.
    fn phase(
        &mut self,
        rate: f64,
        window: Duration,
        abort_backlog: u64,
        member: Option<&Cluster>,
    ) -> Phase {
        let mut p = Phase::default();
        let period = 1e9 / rate;
        let window_ns = window.as_nanos() as f64;
        let start = Instant::now();
        let mut granted = 0u64;
        let mut next_sample = 0.0;
        loop {
            let now = start.elapsed().as_nanos() as f64;
            if now >= window_ns || p.scheduled - granted > abort_backlog {
                break;
            }
            if let Some(c) = member.filter(|_| now >= next_sample) {
                let snap = c.metrics_snapshot();
                p.depth.push(layers::scrape(&snap, "dlm_shard_queue_depth"));
                next_sample = now + 1e7;
            }
            let mut submitted = false;
            // Bounded burst, so a stalled generator still drains.
            let mut burst = 0;
            while p.scheduled as f64 * period <= now && burst < 256 {
                let lock = loop {
                    let l = self.rng.below(LOCKS as u64) as u32;
                    if !self.busy.get(l) {
                        break l;
                    }
                };
                let tag = p.scheduled;
                p.lag.push((now - tag as f64 * period) / 1e3);
                p.scheduled += 1;
                burst += 1;
                let pipe = &mut self.pipe;
                let r = self.spans.time(Span::Submit, || {
                    pipe.submit_acquire(LockId(lock), Mode::Write, tag)
                });
                if r.is_ok() {
                    self.busy.flip(lock);
                    p.submits += 1;
                    submitted = true;
                } else {
                    p.failed += 1;
                    granted += 1;
                }
            }
            submitted |= self.drain(&mut p, &mut granted, start, period, false);
            if submitted {
                let pipe = &mut self.pipe;
                // Every op the flush ships is an op this iteration made due.
                let _ = self.spans.time(Span::Flush, || pipe.flush());
                p.flushes += 1;
            }
        }
        p.backlog = p.scheduled - granted;
        let _ = self.pipe.flush();
        while self.pipe.outstanding() > 0 {
            self.drain(&mut p, &mut granted, start, period, true);
            let _ = self.pipe.flush();
        }
        p.elapsed = start.elapsed();
        p
    }

    /// Take ready completions (blocking for one when `block`), answering
    /// each grant with its release. Returns whether anything was submitted.
    fn drain(
        &mut self,
        p: &mut Phase,
        granted: &mut u64,
        start: Instant,
        period: f64,
        block: bool,
    ) -> bool {
        let mut submitted = false;
        loop {
            let pipe = &mut self.pipe;
            let next = self.spans.time(Span::Recv, || {
                if block && !submitted && pipe.outstanding() > 0 {
                    pipe.recv().ok()
                } else {
                    pipe.try_recv()
                }
            });
            let Some(c) = next else {
                return submitted;
            };
            self.completions += 1;
            if c.tag & RELEASE == 0 {
                *granted += 1;
                if c.result.is_err() {
                    p.failed += 1;
                    self.busy.flip(c.lock.0);
                    continue;
                }
                let now = start.elapsed().as_nanos() as f64;
                p.latency.push((now - c.tag as f64 * period) / 1e3);
                let pipe = &mut self.pipe;
                let r = self.spans.time(Span::Submit, || {
                    pipe.submit_release(c.lock, c.tag | RELEASE)
                });
                if r.is_err() {
                    // The lock stays held: leave it marked busy for good.
                    p.failed += 1;
                } else {
                    p.submits += 1;
                    submitted = true;
                }
            } else {
                self.busy.flip(c.lock.0);
                if c.result.is_ok() {
                    p.done += 1;
                } else {
                    p.failed += 1;
                }
            }
        }
    }
}

/// Build a member and touch every lock once (acquire then release), with
/// a window of pipelined operations. Returns the member, its pipeline and
/// the build and warm-up times.
fn setup(cfg: &Config) -> Result<(Cluster, Pipeline, Duration, Duration), String> {
    let start = Instant::now();
    let cluster = Cluster::new(config(cfg));
    let mut pipe = cluster.handle(0).pipeline();
    let built = start.elapsed();
    const WINDOW: u32 = 4096;
    let mut next = 0u32;
    let mut done = 0u32;
    while done < LOCKS {
        while next < LOCKS && next - done < WINDOW {
            pipe.submit_acquire(LockId(next), Mode::Write, 0)
                .map_err(|e| format!("warm-up acquire: {e:?}"))?;
            next += 1;
        }
        let c = pipe.recv().map_err(|e| format!("warm-up: {e:?}"))?;
        c.result.map_err(|e| format!("warm-up op: {e:?}"))?;
        if c.tag == 0 {
            pipe.submit_release(c.lock, 1)
                .map_err(|e| format!("warm-up release: {e:?}"))?;
        } else {
            done += 1;
        }
    }
    Ok((cluster, pipe, built, start.elapsed() - built))
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut speed = HostSpeed::default();
    let mut member: Option<(Cluster, Pipeline)> = None;
    let (mut built, mut warmed) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        if let Some((cluster, _pipe)) = member.take() {
            report.gate_cluster(&cluster.shutdown(), false);
        }
        match setup(cfg) {
            Ok((cluster, pipe, build, warm)) => {
                speed.sample_n(5);
                setups.push((build + warm).as_secs_f64());
                built.push(build.as_secs_f64() * 1e3);
                warmed.push(warm.as_secs_f64() * 1e3);
                member = Some((cluster, pipe));
            }
            Err(e) => {
                report.errors.push(e);
                return report;
            }
        }
    }
    report.set("setup_s", median(setups));
    report.set("setup.build_ms", median(built));
    report.set("setup.warm_ms", median(warmed));
    // Each warm-up op pair counts as an attempted op.
    report.attempted += SETUPS as u64 * LOCKS as u64;
    let (cluster, pipe) = member.expect("at least one set-up");

    let mut d = Generator {
        pipe,
        busy: Busy(vec![0; (LOCKS as usize).div_ceil(64)]),
        rng: Rng::new(cfg.seed),
        spans: Spans::new(cfg.trace),
        completions: 0,
    };

    // Knee search (traced run only): bisection in log-rate space until the
    // bracket is within 5%.
    let (mut lo, mut hi) = (NOMINAL_RATE / 4.0, NOMINAL_RATE * 16.0);
    while cfg.trace && hi / lo > 1.05 {
        let rate = (lo * hi).sqrt();
        // Abort well before the shard queue bound refuses work.
        let abort = ((rate * 20e-3) as u64).min(config(cfg).shard_queue as u64 / 4);
        let mut p = d.phase(rate, PROBE, abort, None);
        let p50 = p.latency.percentile(0.5).map_or(f64::INFINITY, |v| v.0);
        let ok = p.failed == 0 && p.backlog as f64 <= rate * 5e-3 && p50 <= KNEE_P50_US;
        if ok {
            lo = rate;
        } else {
            hi = rate;
        }
    }
    if cfg.trace {
        report.set("knee_ops_per_s", lo);
    }

    // The measured phase: latency at the nominal rate.
    let cpu = CpuMark::now();
    let sampled = cfg.trace.then_some(&cluster);
    let mut p = d.phase(NOMINAL_RATE, cfg.seconds, u64::MAX, sampled);
    let cpu_s = cpu.others_s();
    report.attempted += p.scheduled;
    report.failed += p.failed;
    report.check(p.done + p.failed == p.scheduled, || {
        format!(
            "{} ops scheduled, {} completed, {} failed",
            p.scheduled, p.done, p.failed
        )
    });
    report.set("ops_per_s", p.done as f64 / p.elapsed.as_secs_f64());
    speed.sample_n(5);
    report.set("host.slowdown", speed.slowdown());
    report.set("cpu_us_per_op", cpu_s * 1e6 / p.done.max(1) as f64);
    report.set_latency(&mut p.latency);
    report.set(
        "gen.lag_p99_us",
        p.lag.percentile(0.99).map_or(0.0, |v| v.0),
    );
    report.set(
        "handle.ops_per_flush",
        p.submits as f64 / p.flushes.max(1) as f64,
    );

    if cfg.trace {
        report.set("handle.submit_ns", d.spans.mean_ns(Span::Submit));
        report.set("handle.flush_ns", d.spans.mean_ns(Span::Flush));
        let recv = d.spans.total(Span::Recv).as_nanos() as f64 / 1e3;
        report.set("handle.recv_wait_us", recv / d.completions.max(1) as f64);
        report.set(
            "shard.queue_depth_p99",
            p.depth.percentile(0.99).map_or(0.0, |v| v.0),
        );
        let snap = cluster.metrics_snapshot();
        report.set(
            "shard.rejections",
            layers::scrape(&snap, "dlm_shard_rejections_total"),
        );
        report.set(
            "runtime.worker_grant_p50_us",
            layers::scrape_series(&snap, "dlm_acquire_latency_us{quantile=\"0.5\"}"),
        );
        let hops = layers::scrape(&snap, "dlm_acquire_hops_sum")
            / layers::scrape(&snap, "dlm_acquire_hops_count").max(1.0);
        report.set("runtime.hops_mean", hops);
        let ops: Vec<(u32, Mode)> = (0..20_000).map(|_| (0, Mode::Write)).collect();
        layers::replay(&mut report, 1, &ops);
    }
    let start = Instant::now();
    cluster.quiesce_within(Duration::from_millis(2), Duration::from_secs(5));
    report.set("runtime.quiesce_ms", start.elapsed().as_secs_f64() * 1e3);
    drop(d);
    report.gate_cluster(&cluster.shutdown(), false);
    report
}
