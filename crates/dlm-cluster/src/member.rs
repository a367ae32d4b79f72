//! The one member runtime under both [`Cluster`](crate::Cluster) and
//! [`Node`](crate::Node).
//!
//! A [`Member`] is the shard workers of a contiguous range of hosted nodes
//! over one [`Transport`]: the in-process cluster is a member hosting nodes
//! `0..n` on a channel transport, a socket node is a member hosting one
//! node on a [`crate::SocketTransport`]. Both run the same `worker_loop`,
//! and everything around it lives here once: spawning the workers with
//! their shared gauges, handles, the quiescence wait, the recovery scan and
//! repair broadcasts, the metrics snapshot, and the teardown that drains,
//! stops the transport, joins the workers and merges their exits.

use crate::handle::NodeHandle;
use crate::reliable::PeerSnapshot;
use crate::runtime::{
    worker_loop, ClusterConfig, CoalesceStat, Input, LinkReport, NodeExit, NodeMetrics, ScanReport,
};
use crate::shard::{effective_shards, ShardGate};
use crate::transport::{LinkFaults, SocketLinkStat, Transport};
use crossbeam::channel::{unbounded, Receiver, Sender};
use dlm_core::{HierNode, NodeId};
use dlm_metrics::Histogram;
use dlm_trace::{merge_records, TraceRecord};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// State every shard worker of a member shares with the member and with
/// each other. Per-worker rows are indexed by *local* slot,
/// `(node - first) * shards + shard`.
pub(crate) struct Shared {
    /// The cluster-wide parameters, with `reliable` already resolved for
    /// the transport class.
    pub(crate) config: ClusterConfig,
    /// Worker threads per node (the effective, power-of-two shard count).
    pub(crate) shards: usize,
    pub(crate) transport: Arc<dyn Transport>,
    /// Protocol messages transmitted. Every worker bumps it on every send,
    /// so it sits on its own cache line, away from the read-mostly fields
    /// above that every worker reads on the same path.
    pub(crate) messages: Padded<AtomicU64>,
    /// Completion replies whose application-side receiver had gone away.
    pub(crate) replies_dropped: Arc<AtomicU64>,
    /// Physical frames created but not yet fully processed by their
    /// receiving worker (includes frames parked inside the transport and
    /// protocol frames buffered for coalescing).
    pub(crate) in_flight: Arc<AtomicU64>,
    /// Data sequences sent but not yet cumulatively acked (reliability shim
    /// only; 0 otherwise).
    pub(crate) unacked: Arc<AtomicU64>,
    /// One epoch shared by every worker thread, so wall-clock trace stamps
    /// are comparable across threads and merge into one timeline.
    pub(crate) epoch: Instant,
    /// Per-worker request metrics, read live by [`Member::metrics_snapshot`].
    /// Each mutex is touched once per completed *operation* (not per
    /// message), so the steady-state message path never contends on it;
    /// padding keeps neighbouring workers' rows off each other's lines.
    pub(crate) metrics: Vec<Padded<Mutex<NodeMetrics>>>,
    /// Per-worker application admission gates.
    pub(crate) gates: Vec<Arc<ShardGate>>,
    /// Per-worker heartbeat stamps (µs since `epoch`), refreshed by every
    /// worker loop iteration, one cache line each.
    pub(crate) beats: Vec<Padded<AtomicU64>>,
    /// Per-worker count of resident (non-initial) lock states, stored by
    /// the worker at every batch boundary, one cache line each.
    pub(crate) resident: Vec<Padded<AtomicU64>>,
}

/// A value alone on its cache line (128 bytes covers the adjacent-line
/// prefetch pairs of current x86 parts), so writes to it never invalidate
/// a line other threads are reading.
#[repr(align(128))]
#[derive(Default)]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The shard workers of the hosted nodes `first..first + n` over one
/// transport.
pub(crate) struct Member {
    pub(crate) shared: Arc<Shared>,
    /// One input channel per local worker slot.
    pub(crate) inputs: Vec<Sender<Input>>,
    pub(crate) joins: Vec<JoinHandle<NodeExit>>,
    /// The first hosted node id.
    first: u32,
}

/// What a stopped member hands back: [`crate::ClusterReport`] without the
/// audit, with the final states per hosted node instead.
pub(crate) struct MemberReport {
    pub(crate) messages_sent: u64,
    /// Final per-lock states, one entry per hosted node (only locks not in
    /// their initial state, unsorted).
    pub(crate) states: Vec<Vec<(u32, HierNode)>>,
    pub(crate) trace: Vec<TraceRecord>,
    pub(crate) trace_dropped: u64,
    pub(crate) replies_dropped: u64,
    pub(crate) decode_errors: u64,
    pub(crate) frames_fenced: u64,
    pub(crate) workers_died: u64,
    pub(crate) links: Vec<LinkReport>,
    pub(crate) acquire_latency: Histogram,
    pub(crate) acquire_hops: Histogram,
}

impl Member {
    /// Spawn the workers of `hosted` nodes starting at node id `first`.
    /// `bind` builds the transport from the workers' input channels, the
    /// in-flight gauge and the shared epoch; whatever else it returns is
    /// handed back next to the member.
    pub(crate) fn spawn<X, E>(
        config: ClusterConfig,
        first: u32,
        hosted: usize,
        bind: impl FnOnce(
            Vec<Sender<Input>>,
            Arc<AtomicU64>,
            Instant,
        ) -> Result<(Arc<dyn Transport>, X), E>,
    ) -> Result<(Member, X), E> {
        assert!(config.nodes >= 1);
        assert!(config.locks >= 1);
        let shards = effective_shards(config.shards);
        let slots = hosted * shards;
        let in_flight = Arc::new(AtomicU64::new(0));
        let epoch = Instant::now();
        let (inputs, outputs): (Vec<Sender<Input>>, Vec<Receiver<Input>>) =
            (0..slots).map(|_| unbounded()).unzip();
        let (transport, extra) = bind(inputs.clone(), Arc::clone(&in_flight), epoch)?;
        let shared = Arc::new(Shared {
            config,
            shards,
            transport,
            messages: Padded::default(),
            replies_dropped: Arc::new(AtomicU64::new(0)),
            in_flight,
            unacked: Arc::new(AtomicU64::new(0)),
            epoch,
            metrics: (0..slots).map(|_| Padded::default()).collect(),
            gates: (0..slots)
                .map(|_| Arc::new(ShardGate::new(config.shard_queue)))
                .collect(),
            beats: (0..slots).map(|_| Padded::default()).collect(),
            resident: (0..slots).map(|_| Padded::default()).collect(),
        });
        let joins = outputs
            .into_iter()
            .enumerate()
            .map(|(slot, rx)| {
                let me = NodeId(first + (slot / shards) as u32);
                let shard = (slot % shards) as u32;
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dlm-node-{}.{shard}", me.0))
                    .spawn(move || worker_loop(&shared, me, shard, slot, rx))
                    .expect("spawn worker thread")
            })
            .collect();
        let member = Member {
            shared,
            inputs,
            joins,
            first,
        };
        Ok((member, extra))
    }

    /// The hosted node ids.
    pub(crate) fn nodes(&self) -> Range<u32> {
        self.first..self.first + (self.inputs.len() / self.shared.shards) as u32
    }

    /// The local worker slots of hosted node `node`.
    pub(crate) fn slots(&self, node: u32) -> Range<usize> {
        let base = (node - self.first) as usize * self.shared.shards;
        base..base + self.shared.shards
    }

    /// A cloneable blocking handle to hosted node `node`.
    pub(crate) fn handle(&self, node: u32) -> NodeHandle {
        let slots = self.slots(node);
        NodeHandle::new(
            NodeId(node),
            self.inputs[slots.clone()].to_vec(),
            self.shared.gates[slots].to_vec(),
            Arc::clone(&self.shared.replies_dropped),
        )
    }

    pub(crate) fn messages_sent(&self) -> u64 {
        self.shared.messages.load(Ordering::Relaxed)
    }

    pub(crate) fn replies_dropped(&self) -> u64 {
        self.shared.replies_dropped.load(Ordering::Relaxed)
    }

    /// No frame in local flight and no data sequence awaiting an ack.
    pub(crate) fn is_idle(&self) -> bool {
        self.shared.in_flight.load(Ordering::Relaxed) == 0
            && self.shared.unacked.load(Ordering::Relaxed) == 0
    }

    /// Returns the message count once it has stayed stable for `idle` with
    /// the member idle throughout, or whatever it is when `timeout`
    /// elapses first.
    pub(crate) fn quiesce_within(&self, idle: Duration, timeout: Duration) -> u64 {
        let start = Instant::now();
        let tick = (idle / 8).max(Duration::from_micros(200)).min(idle);
        let mut last = self.messages_sent();
        let mut stable_since = Instant::now();
        loop {
            if start.elapsed() >= timeout {
                return self.messages_sent();
            }
            std::thread::sleep(tick);
            let count = self.messages_sent();
            if count != last || !self.is_idle() {
                last = count;
                stable_since = Instant::now();
            } else if stable_since.elapsed() >= idle {
                return count;
            }
        }
    }

    /// Send `input()` to every worker of every hosted node not in `skip`;
    /// returns how many inputs were sent.
    pub(crate) fn broadcast(&self, skip: &[u32], input: impl Fn() -> Input) -> usize {
        let mut sent = 0;
        for node in self.nodes().filter(|n| !skip.contains(n)) {
            for slot in self.slots(node) {
                let _ = self.inputs[slot].send(input());
                sent += 1;
            }
        }
        sent
    }

    /// Recovery scan: one [`ScanReport`] per worker of every hosted node
    /// not in `skip`. A worker that does not answer within 5 s ends the
    /// collection. Only race-free on a quiescent cluster.
    pub(crate) fn scan(&self, skip: &[u32]) -> Vec<ScanReport> {
        let (tx, rx) = unbounded();
        let expected = self.broadcast(skip, || Input::Scan(tx.clone()));
        drop(tx);
        (0..expected)
            .map_while(|_| rx.recv_timeout(Duration::from_secs(5)).ok())
            .collect()
    }

    /// Broadcast the repair wave of [`crate::plan_recovery`] around `dead`
    /// to every worker of every hosted node not in `skip` (DESIGN.md §17).
    /// The wave also tells each link layer to stop expecting acks from
    /// `dead`.
    pub(crate) fn repair(
        &self,
        dead: u32,
        survivors: &[u32],
        plans: Vec<(u32, u32, u32)>,
        skip: &[u32],
    ) {
        let survivors: Arc<Vec<NodeId>> = Arc::new(survivors.iter().map(|&n| NodeId(n)).collect());
        let plans = Arc::new(plans);
        self.broadcast(skip, || Input::PeerDown {
            dead: NodeId(dead),
            survivors: Arc::clone(&survivors),
            plans: Arc::clone(&plans),
        });
    }

    /// Push a raw wire frame from node `from` to node `to` (shard-0
    /// workers on both ends) through the transport. It counts as a
    /// physical frame but not as a protocol message.
    pub(crate) fn inject_frame(&self, from: u32, to: u32, frame: Vec<u8>) {
        let shards = self.shared.shards as u32;
        self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        self.shared.transport.send(
            NodeId(from * shards),
            NodeId(to * shards),
            bytes::Bytes::from(frame),
        );
    }

    /// Render a Prometheus-text-format snapshot of the member's live
    /// metrics: global counters and gauges, per-node operation counters,
    /// per-shard queue/ops/rejection series, and member-wide
    /// acquire-latency / hops-per-acquire summaries with p50/p95/p99
    /// quantiles. Series are labelled with real node ids.
    ///
    /// Safe to call at any time; each worker's metrics mutex is held only
    /// long enough to copy its histograms out.
    pub(crate) fn metrics_snapshot(&self) -> String {
        use std::fmt::Write;
        let shards = self.shared.shards;
        let mut out = String::with_capacity(1024);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        counter(
            &mut out,
            "dlm_messages_total",
            "Protocol messages transmitted.",
            self.messages_sent(),
        );
        counter(
            &mut out,
            "dlm_replies_dropped_total",
            "Completion replies whose receiver had gone away.",
            self.replies_dropped(),
        );
        let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        gauge(
            &mut out,
            "dlm_frames_in_flight",
            "Physical frames sent but not yet fully processed.",
            self.shared.in_flight.load(Ordering::Relaxed),
        );
        gauge(
            &mut out,
            "dlm_frames_unacked",
            "Data sequences sent but not yet cumulatively acked.",
            self.shared.unacked.load(Ordering::Relaxed),
        );

        // Per-worker copies, folded into per-node aggregates below.
        let mut latency = Histogram::new();
        let mut hops = Histogram::new();
        let mut per_slot: Vec<(u64, u64, u64)> = Vec::with_capacity(self.shared.metrics.len());
        for m in &self.shared.metrics {
            let m = m.lock().expect("metrics mutex");
            latency.merge(&m.acquire_latency);
            hops.merge(&m.acquire_hops);
            per_slot.push((m.acquires, m.upgrades, m.releases));
        }
        let per_node: Vec<(u64, u64, u64)> = per_slot
            .chunks(shards)
            .map(|c| {
                c.iter().fold((0, 0, 0), |acc, row| {
                    (acc.0 + row.0, acc.1 + row.1, acc.2 + row.2)
                })
            })
            .collect();
        for (name, help, pick) in [
            (
                "dlm_acquires_total",
                "Completed acquire operations.",
                0usize,
            ),
            ("dlm_upgrades_total", "Completed Rule 7 upgrades.", 1),
            ("dlm_releases_total", "Completed releases.", 2),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (node, row) in self.nodes().zip(&per_node) {
                let v = [row.0, row.1, row.2][pick];
                let _ = writeln!(out, "{name}{{node=\"{node}\"}} {v}");
            }
        }

        // Per-shard series: queue depth and rejections from the admission
        // gates, completed operations from the worker metrics, resident
        // locks from the workers' gauges.
        for (name, help, kind) in [
            (
                "dlm_shard_queue_depth",
                "Application operations queued per shard worker.",
                "gauge",
            ),
            (
                "dlm_shard_rejections_total",
                "Operations refused because a shard queue was full.",
                "counter",
            ),
            (
                "dlm_shard_ops_total",
                "Operations completed per shard worker.",
                "counter",
            ),
            (
                "dlm_shard_locks_resident",
                "Lock states held per shard worker (locks not in their initial state).",
                "gauge",
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (slot, (gate, row)) in self.shared.gates.iter().zip(&per_slot).enumerate() {
                let (node, shard) = (self.first as usize + slot / shards, slot % shards);
                let v = match name {
                    "dlm_shard_queue_depth" => gate.depth(),
                    "dlm_shard_rejections_total" => gate.rejections(),
                    "dlm_shard_locks_resident" => {
                        self.shared.resident[slot].load(Ordering::Relaxed)
                    }
                    _ => row.0 + row.1 + row.2,
                };
                let _ = writeln!(out, "{name}{{node=\"{node}\",shard=\"{shard}\"}} {v}");
            }
        }

        for (name, help, h) in [
            (
                "dlm_acquire_latency_us",
                "Issue-to-grant wall-clock latency of completed operations (microseconds).",
                &latency,
            ),
            (
                "dlm_acquire_hops",
                "Causal network hops on each completed operation's granting chain.",
                &hops,
            ),
        ] {
            let p = h.percentiles();
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} summary");
            let _ = writeln!(out, "{name}{{quantile=\"0.5\"}} {}", p.p50);
            let _ = writeln!(out, "{name}{{quantile=\"0.95\"}} {}", p.p95);
            let _ = writeln!(out, "{name}{{quantile=\"0.99\"}} {}", p.p99);
            let sum = (h.mean() * h.count() as f64).round() as u64;
            let _ = writeln!(out, "{name}_sum {sum}");
            let _ = writeln!(out, "{name}_count {}", h.count());
        }
        out
    }

    /// Shut down all workers and collect their final report.
    ///
    /// Teardown order matters:
    /// 1. *Drain* — wait (bounded) until no physical frame is in flight and
    ///    no data sequence is unacked, so nothing is still parked in a
    ///    router heap or a retransmission queue.
    /// 2. *Stop the transport* — any straggler still parked is flushed into
    ///    its destination channel while the worker threads are alive.
    /// 3. *Stop the workers* — `Shutdown` is queued behind the flushed
    ///    frames, so every worker processes all delivered traffic first.
    ///
    /// The original teardown ran 3 before 2 and lost parked frames: nodes
    /// exited, then the router flushed into channels nobody would read,
    /// and the final audit saw a cluster missing messages it was owed.
    pub(crate) fn shutdown(self) -> MemberReport {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.is_idle() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.stop()
    }

    /// Steps 2 and 3 of [`Self::shutdown`] without the drain, then merge
    /// the workers' exits.
    pub(crate) fn stop(self) -> MemberReport {
        let transport = self.shared.transport.shutdown();
        for tx in &self.inputs {
            let _ = tx.send(Input::Shutdown);
        }
        let shards = self.shared.shards;
        // One state list per hosted node, merged from its workers (disjoint
        // by shard assignment).
        let mut states: Vec<Vec<(u32, HierNode)>> = self.nodes().map(|_| Vec::new()).collect();
        let mut traces: Vec<Vec<TraceRecord>> = Vec::with_capacity(self.joins.len() + 1);
        let mut trace_dropped = transport.trace_dropped;
        let mut decode_errors = transport.wire_decode_errors;
        let mut frames_fenced = 0;
        let mut workers_died: u64 = 0;
        let mut per_node: Vec<(u32, Vec<PeerSnapshot>)> = Vec::new();
        let mut coalesce: Vec<(u32, Vec<CoalesceStat>)> = Vec::new();
        for (slot, join) in self.joins.into_iter().enumerate() {
            let node = self.first + (slot / shards) as u32;
            // A worker that panicked is reported, not propagated: its
            // shard's state is simply gone, exactly as if the node crashed.
            let Ok(exit) = join.join() else {
                workers_died += 1;
                continue;
            };
            states[slot / shards].extend(exit.locks);
            traces.push(exit.trace);
            trace_dropped += exit.trace_dropped;
            decode_errors += exit.decode_errors;
            frames_fenced += exit.frames_fenced;
            if !exit.links.is_empty() {
                per_node.push((node, exit.links));
            }
            if !exit.coalesce.is_empty() {
                coalesce.push((node, exit.coalesce));
            }
        }
        traces.push(transport.trace);
        let mut acquire_latency = Histogram::new();
        let mut acquire_hops = Histogram::new();
        for m in &self.shared.metrics {
            let m = m.lock().expect("metrics mutex");
            acquire_latency.merge(&m.acquire_latency);
            acquire_hops.merge(&m.acquire_hops);
        }
        MemberReport {
            messages_sent: self.shared.messages.load(Ordering::Relaxed),
            states,
            trace: merge_records(traces),
            trace_dropped,
            replies_dropped: self.shared.replies_dropped.load(Ordering::Relaxed),
            decode_errors,
            frames_fenced,
            workers_died,
            links: merge_links(&per_node, &transport.faults, &coalesce, &transport.socket),
            acquire_latency,
            acquire_hops,
        }
    }
}

/// Combine per-worker reliability snapshots, coalescing counters,
/// transport fault tallies, and socket wire counters into one
/// directed-link table.
fn merge_links(
    per_node: &[(u32, Vec<PeerSnapshot>)],
    faults: &[LinkFaults],
    coalesce: &[(u32, Vec<CoalesceStat>)],
    socket: &[SocketLinkStat],
) -> Vec<LinkReport> {
    fn slot(map: &mut BTreeMap<(u32, u32), LinkReport>, from: u32, to: u32) -> &mut LinkReport {
        map.entry((from, to)).or_insert_with(|| LinkReport {
            from,
            to,
            ..LinkReport::default()
        })
    }
    let mut map: BTreeMap<(u32, u32), LinkReport> = BTreeMap::new();
    for (node, snaps) in per_node {
        for s in snaps {
            // `s` is `node`'s endpoint state for peer `s.peer`: the sender
            // half describes the `node → peer` link, the receiver half (and
            // the acks it produced) describes `peer → node`.
            let tx = slot(&mut map, *node, s.peer);
            tx.data_sent += s.data_sent;
            tx.retransmits += s.retransmits;
            let rx = slot(&mut map, s.peer, *node);
            rx.acks_sent += s.acks_sent;
            rx.dups_suppressed += s.dups_suppressed;
            rx.reorders_buffered += s.reorders_buffered;
        }
    }
    for (node, stats) in coalesce {
        for c in stats {
            let link = slot(&mut map, *node, c.peer);
            link.proto_sent += c.proto_sent;
            link.wire_sent += c.wire_sent;
        }
    }
    for f in faults {
        let link = slot(&mut map, f.from, f.to);
        link.dropped += f.dropped;
        link.data_dropped += f.data_dropped;
        link.duplicated += f.duplicated;
        link.reordered += f.reordered;
    }
    for s in socket {
        let link = slot(&mut map, s.from, s.to);
        link.wire_bytes += s.bytes;
        link.resets += s.resets;
    }
    map.into_values().collect()
}
