//! Per-layer probes of a traced run, all from outside the program: a
//! lock-step replay of the workload's operation stream through `dlm-core`
//! (step cost, messages, rule counts) and the wire codec, a kernel TCP
//! round-trip floor, and readers for the runtime's own counters
//! (`metrics_snapshot()` text and shutdown `LinkReport`s).

use crate::Report;
use bytes::BytesMut;
use dlm_cluster::codec::{decode_corr, encode_corr_into};
use dlm_cluster::LinkReport;
use dlm_core::testkit::LockStepNet;
use dlm_core::{LockId, Mode, ProtocolConfig};
use dlm_trace::{Recorder, TraceStats};
use std::cell::RefCell;
use std::io::{Read, Write};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Serve `ops` (`(node, mode)`, one lock) one at a time on a star of
/// `nodes` protocol instances: acquire, deliver to quiescence, release,
/// deliver to quiescence.
fn serve(net: &mut LockStepNet, ops: &[(u32, Mode)], mut on_deliver: impl FnMut(&LockStepNet)) {
    for &(node, mode) in ops {
        net.acquire(node, mode);
        loop {
            on_deliver(net);
            if !net.deliver_one() {
                break;
            }
        }
        net.release(node);
        loop {
            on_deliver(net);
            if !net.deliver_one() {
                break;
            }
        }
    }
}

/// Replay a workload's single-lock operation stream through `dlm-core`
/// (`LockStepNet`) and its messages through the wire codec, setting the
/// `core.*`, `rules.*` and `codec.*` metrics.
pub fn replay(report: &mut Report, nodes: usize, ops: &[(u32, Mode)]) {
    if ops.is_empty() {
        return;
    }
    // Pass 1: the protocol steps alone, timed as a whole.
    let mut net = LockStepNet::star_with_config(nodes, ProtocolConfig::paper());
    net.audit_each_step = false;
    let start = Instant::now();
    serve(&mut net, ops, |_| {});
    let elapsed = start.elapsed();
    let steps = 2 * ops.len() as u64 + net.messages_sent;
    report.set("core.step_ns", elapsed.as_nanos() as f64 / steps as f64);
    let acquires = ops.len() as f64;
    report.set("core.msgs_per_acquire", net.messages_sent as f64 / acquires);

    // Pass 2: the same stream with rule statistics and every message
    // captured for the codec probe.
    let mut net = LockStepNet::star_with_config(nodes, ProtocolConfig::paper());
    net.audit_each_step = false;
    let stats = Rc::new(RefCell::new(TraceStats::new()));
    net.record_into(0, Rc::clone(&stats) as Rc<RefCell<dyn Recorder>>);
    let mut messages = Vec::new();
    serve(&mut net, ops, |net| {
        if let Some(front) = net.in_flight().first() {
            messages.push(front.message.clone());
        }
    });
    let rules = &stats.borrow().rules;
    set_rules(report, acquires, |label| rules.get(label) as f64);
    report.check(net.audit_now(true).is_empty(), || {
        "lock-step replay audit not clean".into()
    });
    codec(report, &messages);
}

/// The `rules.*` metrics from per-rule event counts (`TraceStats` labels).
pub fn set_rules(report: &mut Report, acquires: f64, count: impl Fn(&str) -> f64) {
    // Token transfers emit one event at each end.
    report.set(
        "rules.token_moves_per_acquire",
        count("token-transfer") / 2.0 / acquires,
    );
    report.set(
        "rules.child_grant_share",
        count("rule3.1-child-grant") / acquires,
    );
    report.set(
        "rules.forwards_per_acquire",
        count("rule4.1-queue-or-forward") / acquires,
    );
    report.set(
        "rules.freezes_per_acquire",
        count("rule6-freeze") / acquires,
    );
}

/// Encode and decode `messages` with the correlated wire codec until at
/// least 20 ms of each has been timed.
fn codec(report: &mut Report, messages: &[dlm_core::Message]) {
    if messages.is_empty() {
        return;
    }
    let mut scratch = BytesMut::with_capacity(64);
    let frames: Vec<_> = messages
        .iter()
        .enumerate()
        .map(|(i, m)| encode_corr_into(LockId(0), i as u64, 1, 0, m, &mut scratch))
        .collect();
    let bytes: usize = frames.iter().map(|f| f.len()).sum();
    report.set("codec.bytes_per_msg", bytes as f64 / frames.len() as f64);

    let budget = Duration::from_millis(20);
    let (mut n, start) = (0u64, Instant::now());
    while start.elapsed() < budget {
        for (i, m) in messages.iter().enumerate() {
            std::hint::black_box(encode_corr_into(LockId(0), i as u64, 1, 0, m, &mut scratch));
        }
        n += messages.len() as u64;
    }
    report.set(
        "codec.encode_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );

    let (mut n, start) = (0u64, Instant::now());
    while start.elapsed() < budget {
        for f in &frames {
            if decode_corr(std::hint::black_box(f.clone())).is_err() {
                report.errors.push("codec round trip failed".into());
                return;
            }
        }
        n += frames.len() as u64;
    }
    report.set(
        "codec.decode_ns",
        start.elapsed().as_nanos() as f64 / n as f64,
    );
}

/// Median round trip (µs) of `frame`-byte messages over a benchmark-owned
/// loopback TCP connection: the kernel floor under a socket handoff.
pub fn kernel_rtt_us(frame: usize, rounds: usize) -> std::io::Result<f64> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let frame = frame.max(1);
    std::thread::scope(|s| {
        let echo = s.spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept()?;
            conn.set_nodelay(true)?;
            let mut buf = vec![0u8; frame];
            for _ in 0..rounds {
                conn.read_exact(&mut buf)?;
                conn.write_all(&buf)?;
            }
            Ok(())
        });
        let mut conn = std::net::TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let mut buf = vec![7u8; frame];
        let mut rtts = crate::measure::Samples::default();
        for _ in 0..rounds {
            let start = Instant::now();
            conn.write_all(&buf)?;
            conn.read_exact(&mut buf)?;
            rtts.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
        echo.join().expect("echo thread panicked")?;
        Ok(rtts.percentile(0.5).map_or(0.0, |p| p.0))
    })
}

/// Sum of every series of metric `name` in a `metrics_snapshot()` text.
pub fn scrape(snapshot: &str, name: &str) -> f64 {
    snapshot
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The value of one labelled series (`name{labels} value`).
pub fn scrape_series(snapshot: &str, series: &str) -> f64 {
    snapshot
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0.0)
}

/// Totals over a run's directed links, counting each link once from its
/// sending side.
#[derive(Default)]
pub struct Links {
    pub data_sent: u64,
    pub retransmits: u64,
    pub acks_sent: u64,
    pub dropped: u64,
    pub proto_sent: u64,
    pub wire_sent: u64,
    pub wire_bytes: u64,
    pub resets: u64,
}

impl Links {
    pub fn add(&mut self, l: &LinkReport) {
        self.data_sent += l.data_sent;
        self.retransmits += l.retransmits;
        self.acks_sent += l.acks_sent;
        self.dropped += l.dropped;
        self.proto_sent += l.proto_sent;
        self.wire_sent += l.wire_sent;
        self.wire_bytes += l.wire_bytes;
        self.resets += l.resets;
    }

    /// The `coalesce.*`, `reliable.*` and `transport.*` metrics.
    pub fn set_metrics(&self, report: &mut Report) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        report.set(
            "coalesce.msgs_per_frame",
            ratio(self.proto_sent, self.wire_sent),
        );
        report.set(
            "reliable.retransmits_per_kmsg",
            1000.0 * ratio(self.retransmits, self.data_sent),
        );
        report.set(
            "reliable.useful_ratio",
            ratio(self.data_sent, self.data_sent + self.retransmits),
        );
        report.set(
            "reliable.acks_per_data",
            ratio(self.acks_sent, self.data_sent),
        );
        report.set(
            "transport.drop_rate",
            ratio(
                self.dropped,
                self.data_sent + self.retransmits + self.acks_sent,
            ),
        );
    }
}
