//! `wire-handoff`: two socket-backed members (`dlm_cluster::Node`) on
//! loopback TCP in this process, one event-loop thread each. One client
//! alternates Write acquire/release between the members on a single lock,
//! one operation outstanding, so every grant moves the token across the
//! socket and the latency is the handoff cost itself. The run ends with a
//! fixed idle window in which the members' CPU use is measured.

use crate::layers::{self, Links};
use crate::measure::{median, CpuMark, HostSpeed, Samples, Span, Spans};
use crate::{Config, Report};
use dlm_cluster::{
    audit_process_states, ClusterConfig, LockId, Mode, Node, NodeConfig, NodeReport, Pipeline,
    ReliableConfig, SocketConfig,
};
use std::time::{Duration, Instant};

/// Idle window after the load in which member CPU is measured.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Handoffs in the warm-up.
const WARM_OPS: u64 = 200;
const LOCK: LockId = LockId(0);

/// Bind two members on free loopback ports.
fn members(cfg: &Config) -> std::io::Result<Vec<Node>> {
    let addrs = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0")?.local_addr())
        .collect::<std::io::Result<Vec<_>>>()?;
    let cluster = ClusterConfig {
        nodes: 2,
        coalesce: cfg.coalesce,
        reliable: cfg.wan_rto.then(ReliableConfig::wan),
        ..Default::default()
    };
    (0..2)
        .map(|me| {
            let socket = SocketConfig {
                io_threads: 1,
                ..SocketConfig::tcp(me, addrs.clone())
            };
            Node::new(NodeConfig { cluster, socket })
        })
        .collect()
}

/// One client operation: Write-acquire the lock through `pipe`, then
/// release it. Returns the submit-to-grant time.
fn handoff(pipe: &mut Pipeline, spans: &mut Spans) -> Result<Duration, String> {
    let start = Instant::now();
    spans
        .time(Span::Submit, || pipe.submit_acquire(LOCK, Mode::Write, 0))
        .map_err(|e| format!("acquire: {e:?}"))?;
    let _ = spans.time(Span::Flush, || pipe.flush());
    let c = spans.time(Span::Recv, || pipe.recv());
    c.map_err(|e| format!("acquire: {e:?}"))?
        .result
        .map_err(|e| format!("acquire: {e:?}"))?;
    let granted = start.elapsed();
    spans
        .time(Span::Submit, || pipe.submit_release(LOCK, 1))
        .map_err(|e| format!("release: {e:?}"))?;
    let _ = spans.time(Span::Flush, || pipe.flush());
    let c = spans.time(Span::Recv, || pipe.recv());
    c.map_err(|e| format!("release: {e:?}"))?
        .result
        .map_err(|e| format!("release: {e:?}"))?;
    Ok(granted)
}

/// Wait until both members are idle with a stable message count.
fn quiesce(nodes: &[Node]) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    let sum = || nodes.iter().map(Node::messages_sent).sum::<u64>();
    let mut last = sum();
    let mut stable = Instant::now();
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(500));
        let now = sum();
        if now != last || !nodes.iter().all(Node::is_idle) {
            last = now;
            stable = Instant::now();
        } else if stable.elapsed() >= Duration::from_millis(5) {
            return true;
        }
    }
    false
}

/// Quiesce, shut down and audit the members; returns their reports.
fn finish(report: &mut Report, nodes: Vec<Node>) -> Vec<NodeReport> {
    report.check(quiesce(&nodes), || "members never quiesced".into());
    let reports: Vec<NodeReport> = nodes.into_iter().map(Node::shutdown).collect();
    let states: Vec<_> = reports.iter().map(|r| r.states.clone()).collect();
    let errors = audit_process_states(ClusterConfig::default().protocol, &states);
    report.check(errors.is_empty(), || format!("audit: {errors:?}"));
    for r in &reports {
        report.check(
            r.decode_errors == 0
                && r.replies_dropped == 0
                && r.workers_died == 0
                && r.frames_fenced == 0,
            || {
                format!(
                    "decode_errors {} replies_dropped {} workers_died {} frames_fenced {}",
                    r.decode_errors, r.replies_dropped, r.workers_died, r.frames_fenced
                )
            },
        );
    }
    reports
}

struct Setup {
    nodes: Vec<Node>,
    pipes: Vec<Pipeline>,
    build: Duration,
    connect: Duration,
    warm: Duration,
}

fn setup(cfg: &Config, spans: &mut Spans) -> Result<Setup, String> {
    let start = Instant::now();
    let nodes = members(cfg).map_err(|e| format!("bind: {e}"))?;
    let mut pipes: Vec<Pipeline> = nodes.iter().map(|n| n.handle().pipeline()).collect();
    let build = start.elapsed();
    // The first handoff waits for the connection to come up.
    handoff(&mut pipes[1], spans)?;
    let connect = start.elapsed() - build;
    for i in 0..WARM_OPS {
        handoff(&mut pipes[i as usize % 2], spans)?;
    }
    let warm = start.elapsed() - build - connect;
    Ok(Setup {
        nodes,
        pipes,
        build,
        connect,
        warm,
    })
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let mut spans = Spans::new(false);
    let mut times = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some(s) = live.take() {
            let Setup { nodes, pipes, .. } = s;
            drop(pipes);
            finish(&mut report, nodes);
        }
        match setup(cfg, &mut spans) {
            Ok(s) => {
                times[0].push((s.build + s.connect + s.warm).as_secs_f64());
                times[1].push(s.build.as_secs_f64() * 1e3);
                times[2].push(s.connect.as_secs_f64() * 1e3);
                times[3].push(s.warm.as_secs_f64() * 1e3);
                live = Some(s);
            }
            Err(e) => {
                report.errors.push(e);
                return report;
            }
        }
    }
    let [setup_s, build, connect, warm] = times.map(median);
    report.set("setup_s", setup_s);
    report.set("setup.build_ms", build);
    report.set("setup.connect_ms", connect);
    report.set("setup.warm_ms", warm);
    report.attempted += SETUPS as u64 * (WARM_OPS + 1);
    let Setup {
        nodes, mut pipes, ..
    } = live.expect("at least one set-up");

    // The warm-up leaves the token at member 1; op i runs on member i % 2,
    // so every acquire pulls the token across the wire.
    let mut spans = Spans::new(cfg.trace);
    let mut latency = Samples::default();
    let sent_before: u64 = nodes.iter().map(Node::messages_sent).sum();
    let mut speed = HostSpeed::default();
    speed.sample_n(5);
    let cpu = CpuMark::now();
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < cfg.seconds {
        report.attempted += 1;
        match handoff(&mut pipes[ops as usize % 2], &mut spans) {
            Ok(t) => latency.push(t.as_secs_f64() * 1e6),
            Err(e) => {
                report.failed += 1;
                report.errors.push(e);
                break;
            }
        }
        ops += 1;
    }
    let elapsed = start.elapsed();
    let cpu_s = cpu.others_s();
    let sent: u64 = nodes.iter().map(Node::messages_sent).sum::<u64>() - sent_before;
    report.set("ops_per_s", ops as f64 / elapsed.as_secs_f64());
    speed.sample_n(5);
    report.set("host.slowdown", speed.slowdown());
    report.set("cpu_us_per_op", cpu_s * 1e6 / ops.max(1) as f64);
    report.set_latency(&mut latency);
    report.set("wire.msgs_per_acquire", sent as f64 / ops.max(1) as f64);

    let idle = CpuMark::now();
    std::thread::sleep(IDLE_WINDOW);
    report.set(
        "idle.cpu_pct",
        100.0 * idle.others_s() / IDLE_WINDOW.as_secs_f64(),
    );

    if cfg.trace {
        report.set("handle.submit_ns", spans.mean_ns(Span::Submit));
        report.set("handle.flush_ns", spans.mean_ns(Span::Flush));
        report.set("handle.ops_per_flush", 1.0);
        report.set("handle.recv_wait_us", spans.mean_ns(Span::Recv) / 1e3);
        let ops: Vec<(u32, Mode)> = (0..20_000).map(|i| (1 - i % 2, Mode::Write)).collect();
        layers::replay(&mut report, 2, &ops);
    }

    drop(pipes);
    let q = Instant::now();
    let quiet = quiesce(&nodes);
    report.set("runtime.quiesce_ms", q.elapsed().as_secs_f64() * 1e3);
    report.check(quiet, || "members never quiesced".into());
    let reports = finish(&mut report, nodes);

    // Wire counters, each directed link counted at its sending member. The
    // set-up handoffs ride the same connections, so they are included in
    // the totals and in the acquire count.
    let mut links = Links::default();
    for (me, r) in reports.iter().enumerate() {
        for l in r.links.iter().filter(|l| l.from == me as u32) {
            links.add(l);
        }
    }
    let grants = (ops + WARM_OPS + 1) as f64;
    links.set_metrics(&mut report);
    report.set("wire.bytes_per_acquire", links.wire_bytes as f64 / grants);
    report.set("socket.frames_per_acquire", links.wire_sent as f64 / grants);
    let bytes_per_frame = links.wire_bytes as f64 / links.wire_sent.max(1) as f64;
    report.set("socket.bytes_per_frame", bytes_per_frame);
    // Teardown itself closes the connection under the member shut down
    // last, so a clean run reports one reset.
    report.set("socket.resets", links.resets as f64);
    let (mut lat, mut hops) = (
        reports[0].acquire_latency.clone(),
        reports[0].acquire_hops.clone(),
    );
    for r in &reports[1..] {
        lat.merge(&r.acquire_latency);
        hops.merge(&r.acquire_hops);
    }
    report.set("runtime.worker_grant_p50_us", lat.percentiles().p50 as f64);
    report.set("runtime.hops_mean", hops.mean());
    if cfg.trace {
        match layers::kernel_rtt_us(bytes_per_frame.round() as usize, 2_000) {
            Ok(rtt) => report.set("socket.kernel_rtt_us", rtt),
            Err(e) => report.errors.push(format!("kernel rtt probe: {e}")),
        }
    }
    report
}
