//! `airline-mix`: the paper's §4 reservation workload on four in-process
//! `Cluster` members. A table lock and eight entry locks, the paper's mode
//! mix with hierarchical expansion (intent mode on the table, then the
//! entry), seeded 1% frame loss under the reliability shim. Each member is
//! one closed-loop client with the §4.1 critical-section and think times
//! scaled down 10×; the single generator thread drives all four.
//!
//! The run ends with a crash phase: the table's token holder is crashed,
//! detected by polling `Cluster::suspects`, repaired with
//! `recover_within`, and an operation that came due during the outage is
//! granted on a survivor.

use crate::layers::{self, Links};
use crate::measure::{median, CpuMark, HostSpeed, Rng, Samples, Span, Spans};
use crate::sp64::paper_op;
use crate::{Config, Report};
use dlm_cluster::{
    Cluster, ClusterConfig, FaultConfig, LockId, Mode, Pipeline, ReliableConfig, TransportKind,
};
use dlm_workload::{OpPlan, ProtocolKind};
use std::time::{Duration, Instant};

const MEMBERS: u32 = 4;
const ENTRIES: u32 = 8;
/// Per-frame drop probability of every link.
const DROP: f64 = 0.01;
/// Mean critical section and think time: §4.1's 15 ms and 150 ms over 10.
/// A client's cycle also holds its grant waits and the wake-ups of the
/// generator and the members, whose cost on a shared host varies by
/// hundreds of microseconds from run to run; scaled down further (over
/// 100, a 1.65 ms cycle), that variation decides the throughput.
const CS_MEAN: Duration = Duration::from_micros(1_500);
const THINK_MEAN: Duration = Duration::from_micros(15_000);
/// Heartbeat staleness after which `suspects` reports a member.
const SUSPECT_STALE: Duration = Duration::from_millis(100);
/// Quiescence window of the recovery's settle phases.
const RECOVER_IDLE: Duration = Duration::from_millis(2);
/// Idle window after the load in which member CPU is measured.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
/// The member crashed in the crash phase, after taking the table token.
const VICTIM: u32 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Length of one warm-up round, about six client cycles, and the
/// operations the clients must have completed, together, after the rounds.
const WARM: Duration = Duration::from_millis(100);
const WARM_OPS: u64 = 8;

fn config(cfg: &Config) -> ClusterConfig {
    ClusterConfig {
        nodes: MEMBERS as usize,
        locks: 1 + ENTRIES as usize,
        transport: TransportKind::Faulty(FaultConfig {
            seed: cfg.seed,
            drop: DROP,
            ..FaultConfig::default()
        }),
        reliable: Some(if cfg.wan_rto {
            ReliableConfig::wan()
        } else {
            ReliableConfig::in_process()
        }),
        coalesce: cfg.coalesce,
        ..Default::default()
    }
}

enum Phase {
    /// Thinking until the instant; the next operation is due then.
    Think(Instant),
    /// Waiting for the grant of `plan.locks[next - 1]`.
    Acquire { next: usize, start: Instant },
    /// In the critical section until the instant.
    Hold(Instant),
    /// Waiting for `left` release completions; `failed` when the operation
    /// already counted as failed.
    Release { left: usize, failed: bool },
    /// Finished: no further operations.
    Stopped,
}

struct Client {
    pipe: Pipeline,
    plan: OpPlan,
    phase: Phase,
}

/// What the load phase produced.
#[derive(Default)]
struct Load {
    latency: Samples,
    lag: Samples,
    /// Operations started and completed, lock grants.
    started: u64,
    done: u64,
    failed: u64,
    grants: u64,
    depth: Samples,
}

struct Generator {
    clients: Vec<Client>,
    rng: Rng,
    spans: Spans,
}

impl Generator {
    /// Run the clients until `until`, then let every client finish its
    /// current operation. Samples the shard queues of `member` every 10 ms
    /// when given.
    fn load(&mut self, until: Instant, member: Option<&Cluster>) -> Load {
        let mut l = Load::default();
        let mut next_sample = Instant::now();
        let now = Instant::now();
        for c in &mut self.clients {
            c.phase = Phase::Think(now + self.rng.around(THINK_MEAN));
        }
        loop {
            let now = Instant::now();
            let stopping = now >= until;
            if let Some(m) = member.filter(|_| now >= next_sample) {
                l.depth.push(layers::scrape(
                    &m.metrics_snapshot(),
                    "dlm_shard_queue_depth",
                ));
                next_sample = now + Duration::from_millis(10);
            }
            let mut waiting = false;
            let mut wake = now + Duration::from_millis(1);
            for i in 0..self.clients.len() {
                self.step(i, now, stopping, &mut l);
                match self.clients[i].phase {
                    Phase::Think(t) | Phase::Hold(t) => wake = wake.min(t),
                    Phase::Acquire { .. } | Phase::Release { .. } => waiting = true,
                    Phase::Stopped => {}
                }
            }
            if self
                .clients
                .iter()
                .all(|c| matches!(c.phase, Phase::Stopped))
            {
                return l;
            }
            // Poll while a completion is owed; otherwise sleep to the next
            // timer instead of holding a core.
            if waiting {
                std::thread::yield_now();
            } else if let Some(d) = wake.checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
        }
    }

    fn step(&mut self, i: usize, now: Instant, stopping: bool, l: &mut Load) {
        let c = &mut self.clients[i];
        let mut submitted = false;
        while let Some(done) = self.spans.time(Span::Recv, || c.pipe.try_recv()) {
            match c.phase {
                Phase::Acquire { next, start } => {
                    if done.result.is_err() {
                        // Release what was granted before the failure.
                        let held = next - 1;
                        if held == 0 {
                            l.failed += 1;
                        }
                        for &(lock, _) in c.plan.locks[..held].iter().rev() {
                            let _ = self
                                .spans
                                .time(Span::Submit, || c.pipe.submit_release(lock, 0));
                        }
                        submitted |= held > 0;
                        c.phase = if held > 0 {
                            Phase::Release {
                                left: held,
                                failed: true,
                            }
                        } else {
                            Phase::Think(now)
                        };
                        continue;
                    }
                    l.grants += 1;
                    if let Some(&(lock, mode)) = c.plan.locks.get(next) {
                        let r = self
                            .spans
                            .time(Span::Submit, || c.pipe.submit_acquire(lock, mode, 0));
                        submitted = true;
                        c.phase = if r.is_ok() {
                            Phase::Acquire {
                                next: next + 1,
                                start,
                            }
                        } else {
                            for &(lock, _) in c.plan.locks[..next].iter().rev() {
                                let _ = self
                                    .spans
                                    .time(Span::Submit, || c.pipe.submit_release(lock, 0));
                            }
                            Phase::Release {
                                left: next,
                                failed: true,
                            }
                        };
                    } else {
                        l.latency
                            .push(now.duration_since(start).as_secs_f64() * 1e6);
                        c.phase = Phase::Hold(now + self.rng.around(CS_MEAN));
                    }
                }
                Phase::Release { left, failed } => {
                    let failed = failed || done.result.is_err();
                    c.phase = if left > 1 {
                        Phase::Release {
                            left: left - 1,
                            failed,
                        }
                    } else {
                        if failed {
                            l.failed += 1;
                        } else {
                            l.done += 1;
                        }
                        Phase::Think(now + self.rng.around(THINK_MEAN))
                    };
                }
                _ => l.failed += 1,
            }
        }
        match c.phase {
            Phase::Think(_) if stopping => c.phase = Phase::Stopped,
            Phase::Think(due) if now >= due => {
                let kind = paper_op(&mut self.rng);
                let entry = self.rng.below(ENTRIES as u64) as u32;
                c.plan = OpPlan::expand(kind, ProtocolKind::Hier, entry, ENTRIES);
                let (lock, mode) = c.plan.locks[0];
                l.lag.push(now.duration_since(due).as_secs_f64() * 1e6);
                l.started += 1;
                let start = Instant::now();
                let r = self
                    .spans
                    .time(Span::Submit, || c.pipe.submit_acquire(lock, mode, 0));
                if r.is_err() {
                    l.failed += 1;
                    c.phase = Phase::Think(now + self.rng.around(THINK_MEAN));
                } else {
                    submitted = true;
                    c.phase = Phase::Acquire { next: 1, start };
                }
            }
            Phase::Hold(until) if now >= until => {
                for &(lock, _) in c.plan.locks.iter().rev() {
                    let _ = self
                        .spans
                        .time(Span::Submit, || c.pipe.submit_release(lock, 0));
                }
                submitted = true;
                c.phase = Phase::Release {
                    left: c.plan.locks.len(),
                    failed: false,
                };
            }
            _ => {}
        }
        if submitted {
            let _ = self.spans.time(Span::Flush, || c.pipe.flush());
        }
    }
}

/// One closed-loop client per member.
fn clients(cluster: &Cluster) -> Vec<Client> {
    (0..MEMBERS)
        .map(|m| Client {
            pipe: cluster.handle(m).pipeline(),
            plan: OpPlan::expand(
                dlm_workload::OpKind::ReadEntry,
                ProtocolKind::Hier,
                0,
                ENTRIES,
            ),
            phase: Phase::Stopped,
        })
        .collect()
}

/// Block for the next completion on `pipe` and require success.
fn settle(pipe: &mut Pipeline, what: &str) -> Result<(), String> {
    let c = pipe.recv().map_err(|e| format!("{what}: {e:?}"))?;
    c.result.map_err(|e| format!("{what}: {e:?}"))
}

/// Crash the table's token holder, detect, repair, and serve an operation
/// that came due during the outage. Returns (detect, repair, regrant) ms.
fn crash_phase(cluster: &Cluster, pipes: &mut [Pipeline]) -> Result<[f64; 3], String> {
    let v = VICTIM as usize;
    pipes[v]
        .submit_acquire(LockId::TABLE, Mode::Write, 0)
        .map_err(|e| format!("victim acquire: {e:?}"))?;
    settle(&mut pipes[v], "victim acquire")?;
    pipes[v]
        .submit_release(LockId::TABLE, 0)
        .map_err(|e| format!("victim release: {e:?}"))?;
    settle(&mut pipes[v], "victim release")?;
    // Lazy release: the token stays at the victim.
    cluster.quiesce_within(RECOVER_IDLE, Duration::from_secs(5));

    let t0 = Instant::now();
    cluster.crash_node(VICTIM);
    let survivor = &mut pipes[0];
    survivor
        .submit_acquire(LockId::TABLE, Mode::Write, 0)
        .map_err(|e| format!("outage acquire: {e:?}"))?;
    survivor
        .flush()
        .map_err(|e| format!("outage flush: {e:?}"))?;
    while !cluster.suspects(SUSPECT_STALE).contains(&VICTIM) {
        if t0.elapsed() > Duration::from_secs(5) {
            return Err("crashed member never suspected".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let detect = t0.elapsed();
    let repaired = cluster.recover_within(VICTIM, RECOVER_IDLE);
    let repair = t0.elapsed();
    if repaired == 0 {
        return Err("recovery repaired no lock".into());
    }
    settle(survivor, "outage acquire")?;
    let regrant = t0.elapsed();
    survivor
        .submit_release(LockId::TABLE, 0)
        .map_err(|e| format!("outage release: {e:?}"))?;
    settle(survivor, "outage release")?;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok([ms(detect), ms(repair - detect), ms(regrant - repair)])
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut d = Generator {
        clients: Vec::new(),
        rng: Rng::new(cfg.seed),
        spans: Spans::new(false),
    };
    let mut times = [Vec::new(), Vec::new(), Vec::new()];
    let mut live: Option<Cluster> = None;
    // Lock grants of the live member's warm-up, which its link counters
    // include.
    let mut warm_grants = 0;
    for _ in 0..SETUPS {
        if let Some(cluster) = live.take() {
            d.clients.clear();
            report.gate_cluster(&cluster.shutdown(), false);
        }
        let start = Instant::now();
        let cluster = Cluster::new(config(cfg));
        d.clients = clients(&cluster);
        let build = start.elapsed();
        // Warm-up: every client completes a few operations.
        let mut warm = Load::default();
        while warm.done < WARM_OPS && warm.failed == 0 {
            let w = d.load(Instant::now() + WARM, None);
            warm.done += w.done;
            warm.failed += w.failed;
            warm.grants += w.grants;
            report.attempted += w.started;
            report.failed += w.failed;
        }
        let total = start.elapsed();
        times[0].push(total.as_secs_f64());
        times[1].push(build.as_secs_f64() * 1e3);
        times[2].push((total - build).as_secs_f64() * 1e3);
        warm_grants = warm.grants;
        live = Some(cluster);
    }
    let [setup_s, build, warm] = times.map(median);
    report.set("setup_s", setup_s);
    report.set("setup.build_ms", build);
    report.set("setup.warm_ms", warm);
    let cluster = live.expect("at least one set-up");

    d.spans = Spans::new(cfg.trace);
    let sent_before = cluster.messages_sent();
    let mut speed = HostSpeed::default();
    speed.sample_n(5);
    let cpu = CpuMark::now();
    let start = Instant::now();
    let mut load = d.load(start + cfg.seconds, cfg.trace.then_some(&cluster));
    let elapsed = start.elapsed();
    let cpu_s = cpu.others_s();
    let sent = cluster.messages_sent() - sent_before;
    report.attempted += load.started;
    report.failed += load.failed;
    report.check(load.done + load.failed == load.started, || {
        format!(
            "{} ops started, {} completed, {} failed",
            load.started, load.done, load.failed
        )
    });
    report.set("ops_per_s", load.done as f64 / elapsed.as_secs_f64());
    speed.sample_n(5);
    report.set("host.slowdown", speed.slowdown());
    report.set("cpu_us_per_op", cpu_s * 1e6 / load.done.max(1) as f64);
    report.set_latency(&mut load.latency);
    report.set(
        "gen.lag_p99_us",
        load.lag.percentile(0.99).map_or(0.0, |v| v.0),
    );
    let grants = load.grants.max(1) as f64;
    report.set("wire.msgs_per_acquire", sent as f64 / grants);

    let q = Instant::now();
    cluster.quiesce_within(RECOVER_IDLE, Duration::from_secs(5));
    report.set("runtime.quiesce_ms", q.elapsed().as_secs_f64() * 1e3);
    let idle = CpuMark::now();
    std::thread::sleep(IDLE_WINDOW);
    report.set(
        "idle.cpu_pct",
        100.0 * idle.others_s() / IDLE_WINDOW.as_secs_f64(),
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
    report.set(
        "runtime.hops_mean",
        layers::scrape(&snap, "dlm_acquire_hops_sum")
            / layers::scrape(&snap, "dlm_acquire_hops_count").max(1.0),
    );
    if cfg.trace {
        report.set("handle.submit_ns", d.spans.mean_ns(Span::Submit));
        report.set("handle.flush_ns", d.spans.mean_ns(Span::Flush));
        report.set(
            "handle.ops_per_flush",
            d.spans.calls(Span::Submit) as f64 / d.spans.calls(Span::Flush).max(1) as f64,
        );
        report.set(
            "handle.recv_wait_us",
            d.spans.total(Span::Recv).as_secs_f64() * 1e6 / grants,
        );
        report.set(
            "shard.queue_depth_p99",
            load.depth.percentile(0.99).map_or(0.0, |v| v.0),
        );
        // The table lock's share of the op stream, clients round-robin.
        let mut rng = Rng::new(cfg.seed);
        let ops: Vec<(u32, Mode)> = (0..20_000)
            .map(|i| (i % MEMBERS, paper_op(&mut rng).table_mode()))
            .collect();
        layers::replay(&mut report, MEMBERS as usize, &ops);
    }

    let mut pipes: Vec<Pipeline> = d.clients.drain(..).map(|c| c.pipe).collect();
    match crash_phase(&cluster, &mut pipes) {
        Ok([detect, repair, regrant]) => {
            report.set("recovery.detect_ms", detect);
            report.set("recovery.repair_ms", repair);
            report.set("recovery.regrant_ms", regrant);
            report.set("recovery.total_ms", detect + repair + regrant);
        }
        Err(e) => report.errors.push(e),
    }
    drop(pipes);
    let r = cluster.shutdown();
    report.gate_cluster(&r, true);

    let mut links = Links::default();
    for l in &r.links {
        links.add(l);
    }
    links.set_metrics(&mut report);
    // In-process links carry no byte count: model the bytes handed to the
    // transport as codec frames plus the reliability shim's headers (17 B
    // per data frame, 9 B per ack; see `dlm_cluster::reliable`). The link
    // counters span the warm-up, the load and the crash phase's two grants.
    let codec_bytes = report.get("codec.bytes_per_msg");
    if codec_bytes > 0.0 {
        let bytes = links.proto_sent as f64 * codec_bytes
            + (links.data_sent + links.retransmits) as f64 * 17.0
            + links.acks_sent as f64 * 9.0;
        let all_grants = (load.grants + warm_grants + 2) as f64;
        report.set("wire.bytes_per_acquire", bytes / all_grants);
    }
    report
}
