//! The in-process cluster and the shard worker that every member runs.
//!
//! [`Cluster`] is a [`Member`] (see [`crate::member`]) hosting nodes `0..n`
//! on an in-process transport ([`TransportKind`]); on top of the member it
//! keeps its crash set, its heartbeat failure detector and the shutdown
//! audit. The socket [`crate::Node`] is the same member hosting one node.
//! The rest of this module is the shard worker itself, `worker_loop`.
//!
//! # Sharded workers
//!
//! Every node runs [`ClusterConfig::shards`] worker threads; lock `L` is
//! owned by shard [`crate::shard::shard_of`]`(L)` on *every* node, so a
//! frame for `L` goes straight from the sending worker to the owning worker
//! of the destination node with no cross-thread handoff in between. The
//! transport address space is therefore *worker slots*
//! (`node * shards + shard`), not nodes; fault tallies and trace events are
//! folded back to node granularity.
//!
//! Each worker owns its shard's protocol instances (created on first touch
//! and evicted once a step leaves one exactly as created, so a node can
//! host millions of locks and pay only for those not in their initial
//! state), its own [`EffectBuf`] and codec scratch, its own reliability
//! endpoint, and a bounded application-ingress gate
//! ([`crate::shard::ShardGate`]) that sheds new load with
//! [`ClusterError::Overloaded`] instead of queueing without bound.
//!
//! # Coalescing
//!
//! A worker drains its input channel in batches. Outgoing protocol frames
//! produced while processing one batch are buffered per destination and
//! flushed at batch end: several protocol frames to the same peer travel as
//! one container wire frame ([`crate::codec::encode_container_into`]) — one
//! transport handoff, one reliability sequence number, one ack. Per-link
//! [`LinkReport::proto_sent`]/[`LinkReport::wire_sent`] counters report the
//! achieved packing ratio.

use crate::codec;
use crate::handle::{ClusterError, Completion, NodeHandle, OpKind, PipeOp, Reply};
use crate::member::{Member, Shared};
use crate::node::audit_surviving_states;
use crate::reliable::{Endpoint, PeerSnapshot, ReliableConfig, TransportClass};
use crate::shard::{effective_shards, shard_of, FastMap, ShardGate};
use crate::transport::{Direct, Faulty, Transport, TransportKind, TRANSPORT_LOCK};
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use dlm_core::{AuditError, Effect, EffectBuf, HierNode, LockId, Mode, NodeId, ProtocolConfig};
use dlm_metrics::Histogram;
use dlm_trace::{
    NullObserver, Observer, ProtocolEvent, Recorder, RingRecorder, Stamp, TraceRecord,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on inputs a worker processes before it flushes its coalesce
/// buffers (and reliability acks). Large enough to pack hot links well,
/// small enough to keep retransmission ticks timely.
const BATCH: usize = 256;

/// How often an otherwise idle worker wakes to refresh its heartbeat stamp.
/// Bounds failure-detection latency from below: [`Cluster::suspects`] should
/// use a staleness threshold of several multiples of this.
const HEARTBEAT: Duration = Duration::from_millis(25);

/// Cluster construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of lock objects hosted (ids `0..locks`). A worker keeps
    /// protocol state only for locks not in their initial state, so this
    /// may be in the millions.
    pub locks: usize,
    /// Protocol feature toggles.
    pub protocol: ProtocolConfig,
    /// The interconnect carrying encoded frames between workers; see
    /// [`TransportKind`].
    pub transport: TransportKind,
    /// When set, every protocol frame travels through the per-link
    /// reliability shim (sequence numbers, cumulative acks, retransmission,
    /// dedup/reorder buffering) — required for a clean run over
    /// [`TransportKind::Faulty`] links with a non-zero drop rate.
    pub reliable: Option<ReliableConfig>,
    /// Per-worker flight-recorder capacity for structured protocol events;
    /// `0` disables tracing (workers then pay one branch per event site).
    /// Retained records are merged at shutdown into
    /// [`ClusterReport::trace`].
    pub trace_capacity: usize,
    /// Worker threads per node, rounded up to a power of two. Lock-id →
    /// shard assignment is the splittable hash in [`crate::shard`]; `1`
    /// (the default) reproduces the classic one-thread-per-node runtime.
    pub shards: usize,
    /// Bound on queued application operations per shard worker; operations
    /// beyond it are refused with [`ClusterError::Overloaded`]. Network
    /// frames are never gated.
    pub shard_queue: usize,
    /// Pack protocol frames sharing a destination within one input batch
    /// into a single container wire frame. On by default; turn off to
    /// measure the per-frame transport cost it amortizes.
    pub coalesce: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 2,
            locks: 1,
            protocol: ProtocolConfig::paper(),
            transport: TransportKind::Direct,
            reliable: None,
            trace_capacity: 0,
            shards: 1,
            shard_queue: 8192,
            coalesce: true,
        }
    }
}

/// What a worker thread receives.
pub(crate) enum Input {
    /// An encoded wire frame from worker slot `from`.
    Net { from: NodeId, frame: Bytes },
    /// Application request: acquire `lock` in `mode`; answer on `reply`.
    Acquire {
        lock: LockId,
        mode: Mode,
        reply: Reply,
    },
    /// Application request: acquire `lock` in `mode` only if that is
    /// possible locally without waiting; answer on `reply` with
    /// `Ok(granted)`.
    TryAcquire {
        lock: LockId,
        mode: Mode,
        reply: crate::handle::TryReply,
    },
    /// Application request: Rule 7 upgrade on `lock`.
    Upgrade { lock: LockId, reply: Reply },
    /// Application request: release `lock`.
    Release { lock: LockId, reply: Reply },
    /// A pipelined batch of operations. Outcomes settled while processing
    /// the batch are answered as one vector on `tx`; deferred grants follow
    /// later as singleton vectors.
    Ops {
        ops: Vec<PipeOp>,
        tx: Sender<Vec<Completion>>,
    },
    /// Simulated node crash: the worker abandons its protocol state and
    /// enters a silent drain loop — incoming frames are discarded and
    /// application operations fail with [`ClusterError::WorkerDied`] —
    /// until `Shutdown`. It stops heartbeating, which is how the failure
    /// detector notices.
    Die,
    /// Link-layer obituary: stop retransmitting to (and expecting acks
    /// from) `dead`, whose silence would otherwise hold the unacked gauge —
    /// and with it quiescence — hostage forever.
    Isolate { dead: NodeId },
    /// Report `(lock, has_token, epoch)` for every lock this worker holds
    /// resident (not in its initial state), tagged with the worker's node
    /// id. The recovery coordinator scans survivors with this before
    /// planning a repair wave.
    Scan(Sender<ScanReport>),
    /// Recovery wave (DESIGN.md §17): repair every planned lock owned by
    /// this worker around the crashed node. Plans are
    /// `(lock, new_root, new_epoch)`.
    PeerDown {
        dead: NodeId,
        survivors: Arc<Vec<NodeId>>,
        plans: Arc<Vec<(u32, u32, u32)>>,
    },
    /// Test hook: panic the worker thread, exercising the shutdown path
    /// that reports [`ClusterReport::workers_died`] instead of propagating
    /// the panic.
    Panic,
    /// Test hook: tear down the registered application waiter for the
    /// outstanding operation on `lock`, leaving the operation active in
    /// the protocol. The caller sees its reply channel close; the grant,
    /// when it arrives, has nobody to answer and must be counted in
    /// [`ClusterReport::replies_dropped`] instead of panicking the worker.
    OrphanWaiter { lock: LockId },
    /// Tear down the worker thread; it returns its protocol states.
    Shutdown,
}

/// Per-directed-link telemetry merged from the reliability endpoints, the
/// coalescing counters, and the transport's fault tallies at shutdown.
/// Reliability and fault counters are zero unless the corresponding
/// machinery was configured ([`ClusterConfig::reliable`],
/// [`TransportKind::Faulty`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkReport {
    /// Sender.
    pub from: u32,
    /// Receiver.
    pub to: u32,
    /// Data frames originally sent (retransmissions not included). With
    /// coalescing this counts *wire* frames, so it equals
    /// [`Self::wire_sent`] on a reliable link.
    pub data_sent: u64,
    /// Retransmissions of unacked data frames.
    pub retransmits: u64,
    /// Bare cumulative acks the receiver sent back for this link's data.
    pub acks_sent: u64,
    /// Duplicate data frames the receiver suppressed.
    pub dups_suppressed: u64,
    /// Out-of-order data frames the receiver parked until the gap filled.
    pub reorders_buffered: u64,
    /// Frames the transport dropped in flight.
    pub dropped: u64,
    /// Of [`Self::dropped`], the reliability-shim data frames; the rest
    /// were bare acks. Only a lost data frame must be retransmitted: a
    /// later cumulative ack covers a lost ack.
    pub data_dropped: u64,
    /// Extra copies the transport injected.
    pub duplicated: u64,
    /// Frames the transport held back past later traffic.
    pub reordered: u64,
    /// Protocol frames carried over this link (the payload count).
    pub proto_sent: u64,
    /// Physical wire frames that carried them; `proto_sent / wire_sent`
    /// is the link's coalescing ratio (1.0 with coalescing off).
    pub wire_sent: u64,
    /// Payload bytes observed on a real wire for this link (socket
    /// transports only; 0 in-process).
    pub wire_bytes: u64,
    /// Socket connection losses observed on this link (peer reset, EOF
    /// mid-stream, or a write failure); the node keeps serving after each.
    pub resets: u64,
}

/// Final report of a shut-down cluster.
#[derive(Debug)]
pub struct ClusterReport {
    /// Total protocol messages transmitted (retransmissions and acks are
    /// link-layer frames and not counted here; see [`Self::links`]).
    pub messages_sent: u64,
    /// Per-lock audit findings on the final states (with the cluster
    /// quiesced, these should all be empty). Locks that no node holds
    /// resident are in their initial state everywhere and are skipped.
    pub audit_errors: Vec<AuditError>,
    /// Merged structured event trace (wall-clock µs since cluster start;
    /// empty when [`ClusterConfig::trace_capacity`] is 0). Ordered by
    /// `(at, node)` with a fresh global sequence. Transport and reliability
    /// events that no lock can claim carry the sentinel lock id
    /// [`TRANSPORT_LOCK`].
    pub trace: Vec<TraceRecord>,
    /// Events evicted from the per-worker flight recorders before shutdown
    /// (0 means [`Self::trace`] is complete).
    pub trace_dropped: u64,
    /// Completion replies whose application-side receiver had already gone
    /// away (e.g. a handle dropped mid-call). Non-zero values mean some
    /// caller never saw its outcome.
    pub replies_dropped: u64,
    /// Frames that arrived but could not be decoded (truncated, bad tag,
    /// bad reliability header). The receiving worker counts them and keeps
    /// serving; on a healthy in-process transport this is always 0.
    pub decode_errors: u64,
    /// Stale-generation frames fenced by epoch rule R3 (DESIGN.md §17): a
    /// non-`Recover` frame stamped with an epoch other than the receiving
    /// node's was dropped without touching protocol state. Non-zero only
    /// after a crash recovery raced in-flight traffic — which is the fence
    /// doing its job.
    pub frames_fenced: u64,
    /// Worker threads that terminated by panicking instead of returning
    /// their state at shutdown. Reported (and their states excluded from
    /// the audit) rather than propagating the panic; the live-cluster
    /// analogue is [`ClusterError::WorkerDied`].
    pub workers_died: u64,
    /// Per-link reliability/coalescing/fault counters, sorted by
    /// `(from, to)`; empty when no link carried anything to report.
    pub links: Vec<LinkReport>,
    /// Wall-clock latency (µs) of every completed application acquire and
    /// upgrade, merged across nodes: issue at the worker thread → grant
    /// delivered to the waiter.
    pub acquire_latency: Histogram,
    /// Causal network hops on each completed operation's granting chain
    /// (0 = local admit without any message).
    pub acquire_hops: Histogram,
}

/// An in-process cluster of protocol nodes, each running one worker thread
/// per shard: a `Member` hosting every node on an in-process transport.
pub struct Cluster {
    member: Member,
    /// Nodes administratively crashed via [`Cluster::crash_node`]; their
    /// final states are excluded from the shutdown audit.
    crashed: Mutex<BTreeSet<u32>>,
}

impl Cluster {
    /// Spawn the cluster. Node 0 initially holds every token.
    pub fn new(mut config: ClusterConfig) -> Self {
        // Every in-process transport is a channel handoff; an auto reliable
        // config resolves to the in-process RTO floor here (sockets resolve
        // to the WAN floor in `Node::new`).
        config.reliable = config
            .reliable
            .map(|cfg| cfg.resolved_for(TransportClass::InProcess));
        let shards = effective_shards(config.shards);
        let spawned = Member::spawn(config, 0, config.nodes, |inputs, in_flight, epoch| {
            let transport: Arc<dyn Transport> = match config.transport {
                TransportKind::Direct => Arc::new(Direct::new(inputs, in_flight)),
                TransportKind::Faulty(faults) => Arc::new(Faulty::new(
                    inputs, in_flight, faults, &config, shards, epoch,
                )),
            };
            Ok::<_, Infallible>((transport, ()))
        });
        let (member, ()) = match spawned {
            Ok(spawned) => spawned,
            Err(never) => match never {},
        };
        Cluster {
            member,
            crashed: Mutex::new(BTreeSet::new()),
        }
    }

    /// A cloneable blocking handle to node `id`.
    pub fn handle(&self, id: u32) -> NodeHandle {
        self.member.handle(id)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.member.shared.config.nodes
    }

    /// Always false (a cluster has at least one node).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Worker threads per node (the effective, power-of-two shard count).
    pub fn shards(&self) -> usize {
        self.member.shared.shards
    }

    /// Protocol messages transmitted so far.
    pub fn messages_sent(&self) -> u64 {
        self.member.messages_sent()
    }

    /// Completion replies dropped so far because the application-side
    /// receiver was already gone (see [`ClusterReport::replies_dropped`]).
    pub fn replies_dropped(&self) -> u64 {
        self.member.replies_dropped()
    }

    /// Render a Prometheus-text-format snapshot of the cluster's live
    /// metrics: global counters and gauges, per-node operation counters,
    /// per-shard queue/ops/rejection series, and cluster-wide
    /// acquire-latency / hops-per-acquire summaries with p50/p95/p99
    /// quantiles.
    ///
    /// Safe to call at any time; each worker's metrics mutex is held only
    /// long enough to copy its histograms out.
    pub fn metrics_snapshot(&self) -> String {
        self.member.metrics_snapshot()
    }

    /// Test hook: push a raw wire frame into the cluster as if node `from`
    /// had sent it to node `to` (shard-0 workers on both ends). The frame
    /// takes the normal transport path (so it is subject to delay and fault
    /// injection) and counts as a physical frame but not as a protocol
    /// message — fault-injection tests use this to exercise the
    /// decode-error and reliability paths.
    pub fn inject_frame(&self, from: u32, to: u32, frame: Vec<u8>) {
        self.member.inject_frame(from, to, frame);
    }

    /// Simulate the crash of node `id`: its workers abandon their protocol
    /// state, fail their waiting callers with
    /// [`ClusterError::WorkerDied`], and go silent — they stop
    /// heartbeating (so [`Self::suspects`] flags the node) but keep
    /// draining their input channels so the in-flight accounting stays
    /// truthful. Every surviving worker's link layer is simultaneously
    /// told to stop expecting acks from the dead node
    /// ([`Input::Isolate`]), so quiescence still converges.
    ///
    /// The node's final state is excluded from the shutdown audit; call
    /// [`Self::recover`] to repair the survivors around it.
    pub fn crash_node(&self, id: u32) {
        self.crashed.lock().expect("crashed mutex").insert(id);
        let dead = self.member.slots(id);
        for (slot, tx) in self.member.inputs.iter().enumerate() {
            let _ = tx.send(if dead.contains(&slot) {
                Input::Die
            } else {
                Input::Isolate { dead: NodeId(id) }
            });
        }
    }

    /// Heartbeat failure detector: node ids with at least one worker whose
    /// heartbeat stamp is older than `stale` or whose thread has
    /// terminated outright (panicked). Healthy workers refresh their
    /// stamps at least every 25 ms ([`HEARTBEAT`]), so thresholds of a few
    /// hundred milliseconds give a detector with no false positives on an
    /// unloaded machine.
    pub fn suspects(&self, stale: Duration) -> Vec<u32> {
        let m = &self.member;
        let now = m.shared.epoch.elapsed().as_micros() as u64;
        let stale_us = stale.as_micros() as u64;
        m.nodes()
            .filter(|&node| {
                m.slots(node).any(|slot| {
                    m.joins[slot].is_finished()
                        || now.saturating_sub(m.shared.beats[slot].load(Ordering::Relaxed))
                            > stale_us
                })
            })
            .collect()
    }

    /// Recover the survivors around crashed node `dead` (DESIGN.md §17):
    ///
    /// 1. *Quiesce* — the scan below is only race-free with no token in
    ///    flight. (Crashed workers keep draining their channels and
    ///    [`Self::crash_node`] already isolated the dead link ends, so
    ///    this converges.)
    /// 2. *Scan* — every surviving worker reports `(lock, has_token,
    ///    epoch)` for the locks it holds resident (not in their initial
    ///    state).
    /// 3. *Plan* — per affected lock: the next epoch is one past the
    ///    highest epoch seen, and the new root is the surviving token
    ///    holder at that epoch if any, else the lowest-numbered survivor
    ///    (which will regenerate the token, Rule R2). If node 0 died,
    ///    every lock is affected: unreported locks' initial tokens lived
    ///    there. If another node died, an unreported lock is initial on
    ///    every node and is not repaired.
    /// 4. *Repair* — broadcast the wave ([`Input::PeerDown`]) and wait for
    ///    it to settle.
    ///
    /// Returns the number of locks repaired.
    pub fn recover(&self, dead: u32) -> usize {
        self.recover_within(dead, Duration::from_millis(20))
    }

    /// [`Self::recover`] with a caller-chosen quiescence idle window for
    /// the settle phases (steps 1 and 4). The default 20 ms is safe margin
    /// for chaos tests on loaded machines; latency measurements use a
    /// tighter window so the settle constant does not drown the actual
    /// scan/repair fan-out being measured.
    pub fn recover_within(&self, dead: u32, idle: Duration) -> usize {
        self.quiesce_within(idle, Duration::from_secs(10));
        let crashed = self.crashed();
        let rows = self.member.scan(&crashed);
        let survivors: Vec<u32> = self
            .member
            .nodes()
            .filter(|n| !crashed.contains(n))
            .collect();
        let plans = plan_recovery(&rows, dead, &survivors, self.member.shared.config.locks);
        let repaired = plans.len();
        self.member.repair(dead, &survivors, plans, &crashed);
        self.quiesce_within(idle, Duration::from_secs(10));
        repaired
    }

    /// The nodes crashed so far, ascending.
    fn crashed(&self) -> Vec<u32> {
        let crashed = self.crashed.lock().expect("crashed mutex");
        crashed.iter().copied().collect()
    }

    /// Test hook: make one worker thread of `node` panic, exercising the
    /// shutdown path that counts [`ClusterReport::workers_died`] instead
    /// of propagating the panic. The node's (now partial) state is
    /// excluded from the shutdown audit, like a crashed node's.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self, node: u32) {
        self.crashed.lock().expect("crashed mutex").insert(node);
        let _ = self.member.inputs[self.member.slots(node).start].send(Input::Panic);
    }

    /// Test hook: tear down the application waiter registered for the
    /// outstanding operation on `lock` at `node` (see
    /// [`Input::OrphanWaiter`]). The blocked caller observes
    /// [`ClusterError::Disconnected`]; the eventual grant is counted in
    /// [`ClusterReport::replies_dropped`] instead of panicking the worker.
    #[doc(hidden)]
    pub fn orphan_waiter(&self, node: u32, lock: LockId) {
        let slot = self.member.slots(node).start + shard_of(lock, self.shards());
        let _ = self.member.inputs[slot].send(Input::OrphanWaiter { lock });
    }

    /// Quiescence wait: returns once the message counter has stayed stable
    /// for `idle` *and* no physical frame is in flight or awaiting ack,
    /// bounded by a generous default timeout. Use after all application
    /// operations completed to let release waves drain.
    pub fn quiesce(&self, idle: Duration) -> u64 {
        self.quiesce_within(idle, Duration::from_secs(30))
    }

    /// [`Self::quiesce`] with an explicit upper bound: returns the final
    /// message count once the cluster is idle for `idle`, or whatever the
    /// count is when `timeout` elapses first.
    ///
    /// "Idle" consults the in-flight gauge, not just the send counter: a
    /// frame parked in a [`TransportKind::Faulty`] router (or a dropped
    /// frame awaiting retransmission, or a protocol frame buffered for
    /// coalescing) produces no sends for longer than a small `idle` window,
    /// and judging by counter stability alone would declare quiescence
    /// while the cluster still owes itself traffic.
    pub fn quiesce_within(&self, idle: Duration, timeout: Duration) -> u64 {
        self.member.quiesce_within(idle, timeout)
    }

    /// Shut down all threads and audit the final protocol states per lock.
    /// The teardown drains the in-flight and unacked gauges (bounded), then
    /// stops the transport, then the workers, so no frame parked in a
    /// router heap or a retransmission queue is lost.
    pub fn shutdown(self) -> ClusterReport {
        let crashed = self.crashed();
        let protocol = self.member.shared.config.protocol;
        let r = self.member.shutdown();
        // Crashed nodes are excluded: their state died with them, and after
        // a recovery wave the survivors form a complete, self-consistent
        // hierarchy on their own.
        let audit_errors = audit_surviving_states(protocol, &r.states, &crashed);
        ClusterReport {
            messages_sent: r.messages_sent,
            audit_errors,
            trace: r.trace,
            trace_dropped: r.trace_dropped,
            replies_dropped: r.replies_dropped,
            decode_errors: r.decode_errors,
            frames_fenced: r.frames_fenced,
            workers_died: r.workers_died,
            links: r.links,
            acquire_latency: r.acquire_latency,
            acquire_hops: r.acquire_hops,
        }
    }
}

/// Per-worker operation metrics: request latency/hop distributions and
/// operation counters. Owned by the worker thread, read by
/// the member's live metrics snapshot under a short-lived mutex.
#[derive(Debug, Default)]
pub(crate) struct NodeMetrics {
    /// Wall-clock µs, issue → grant, for completed acquires and upgrades.
    pub(crate) acquire_latency: Histogram,
    /// Causal hop depth of the frame that delivered each grant.
    pub(crate) acquire_hops: Histogram,
    /// Completed acquire operations (blocking, pipelined, and try fast
    /// path).
    pub(crate) acquires: u64,
    /// Completed Rule 7 upgrades.
    pub(crate) upgrades: u64,
    /// Completed releases.
    pub(crate) releases: u64,
}

/// Per-peer coalescing counters a worker hands back at exit.
pub(crate) struct CoalesceStat {
    pub(crate) peer: u32,
    pub(crate) proto_sent: u64,
    pub(crate) wire_sent: u64,
}

/// What a worker thread hands back at shutdown.
pub(crate) struct NodeExit {
    /// This shard's protocol instances, keyed by lock id (only locks not in
    /// their initial state; empty if the worker crashed).
    pub(crate) locks: FastMap<u32, HierNode>,
    pub(crate) trace: Vec<TraceRecord>,
    pub(crate) trace_dropped: u64,
    pub(crate) decode_errors: u64,
    pub(crate) frames_fenced: u64,
    pub(crate) links: Vec<PeerSnapshot>,
    pub(crate) coalesce: Vec<CoalesceStat>,
}

/// One survivor's recovery scan report: its node id plus a `(lock,
/// has_token, epoch)` row for every lock its workers hold resident.
/// Produced by [`Input::Scan`] in-process and by
/// [`crate::Node::scan_locks`] in the multi-process path; consumed by
/// [`plan_recovery`].
pub type ScanReport = (u32, Vec<(u32, bool, u32)>);

/// Turn survivor scan rows into a repair plan: one `(lock, new_root,
/// new_epoch)` triple per affected lock.
///
/// `rows` is one `(node, [(lock, has_token, epoch)])` entry per surviving
/// worker ([`Input::Scan`] output, or a [`crate::Node::scan_locks`] report
/// per member in the multi-process path). Per lock, the next epoch is one
/// past the highest epoch any survivor reported, and the new root is the
/// surviving token holder at that epoch if there is one — otherwise the
/// lowest-numbered survivor, which will regenerate the token (Rule R2).
/// When node 0 died, every lock in `0..locks` is affected: a lock no
/// survivor holds resident had its initial token at node 0. When another
/// node died, such a lock is in its initial state on every node, the dead
/// one included, and needs no repair.
///
/// Shared by [`Cluster::recover`], the socket-node recovery path, and the
/// multi-process harness, so all three plan identically.
pub fn plan_recovery(
    rows: &[ScanReport],
    dead: u32,
    survivors: &[u32],
    locks: usize,
) -> Vec<(u32, u32, u32)> {
    // Per lock: the highest epoch seen and the surviving token holder at
    // that epoch, if any.
    let mut per_lock: BTreeMap<u32, (u32, Option<u32>)> = BTreeMap::new();
    for (node, entries) in rows {
        for &(lock, has_token, epoch) in entries {
            let entry = per_lock.entry(lock).or_insert((epoch, None));
            if epoch > entry.0 {
                *entry = (epoch, None);
            }
            if has_token && epoch == entry.0 {
                entry.1 = Some(*node);
            }
        }
    }
    if dead == 0 {
        for lock in 0..locks as u32 {
            per_lock.entry(lock).or_insert((0, None));
        }
    }
    let fallback = survivors.first().copied().unwrap_or(0);
    per_lock
        .into_iter()
        .map(|(lock, (epoch, holder))| (lock, holder.unwrap_or(fallback), epoch + 1))
        .collect()
}

/// A blocked application operation: its reply channel plus the request-span
/// identity and issue time used for grant-side metrics and trace events.
struct Waiter {
    reply: Reply,
    /// Request id assigned at issue (`node << 32 | per-worker counter`).
    req: u64,
    /// Wall-clock issue time, for the acquire-latency histogram.
    started: Instant,
}

/// Long-lived per-worker-thread state threaded through every protocol entry
/// point: trace recorder, application waiters, reliability endpoint, encode
/// scratch, effect sink, coalesce buffers, shared metrics, and the
/// request-id allocator.
///
/// Bundling these lets [`NodeCtx::flush`] — the one place effects become
/// frames, grants, and metrics — borrow them together without a
/// ten-argument function.
struct NodeCtx<'a> {
    me: NodeId,
    /// This worker's shard index — used to filter recovery plans down to
    /// the locks this worker owns.
    shard: u32,
    /// The node's shard count — the stride of this worker's request-id
    /// counter and the slot-to-node divisor for transport addresses.
    shards: u32,
    /// This worker's copy of the cluster parameters, so the per-message
    /// path reads them from its own memory.
    config: ClusterConfig,
    /// The member state every worker shares: transport, gauges, counters
    /// and the trace epoch.
    shared: &'a Shared,
    /// This worker's application admission gate.
    gate: &'a ShardGate,
    /// Frames dropped by the epoch fence (Rule R3); folded into
    /// [`ClusterReport::frames_fenced`] at shutdown.
    fenced: u64,
    /// Frames that failed to decode; folded into
    /// [`ClusterReport::decode_errors`] at shutdown.
    decode_errors: u64,
    recorder: Option<RingRecorder>,
    /// [`initial_state`] of this node, the template a lock must equal to be
    /// evicted.
    initial: HierNode,
    /// Application waiters keyed by `(lock, request id)`. The protocol
    /// still admits one *pending* operation per lock per node (enforced via
    /// `active`), but the key shape keeps every waiter's identity distinct
    /// across locks — any number of locks can have an operation in flight
    /// concurrently from one node.
    waiters: FastMap<(u32, u64), Waiter>,
    /// The outstanding request id per lock, if any ([`ClusterError::Busy`]
    /// guards it).
    active: FastMap<u32, u64>,
    endpoint: Option<Endpoint>,
    encode_scratch: bytes::BytesMut,
    container_scratch: bytes::BytesMut,
    effect_buf: EffectBuf,
    metrics: &'a Mutex<NodeMetrics>,
    next_req: u64,
    /// Coalescing state: per-peer-node buffered protocol frames, the peers
    /// with a non-empty buffer (in first-touch order), and per-peer packing
    /// counters.
    pending: Vec<Vec<Bytes>>,
    pending_peers: Vec<u32>,
    proto_sent: Vec<u64>,
    wire_sent: Vec<u64>,
    /// Completions settled synchronously while processing one pipelined
    /// [`Input::Ops`] chunk, shipped to the client as a single channel send
    /// at chunk end. Deferred grants (waiters completed by later network
    /// traffic) bypass this and send singletons.
    comp_batch: Vec<Completion>,
}

impl NodeCtx<'_> {
    /// Allocate a fresh, never-zero request id: `node << 32 | counter`,
    /// where the counter is strided by the shard count so workers of one
    /// node never collide (worker `s` issues `s + shards`, `s + 2·shards`,
    /// …; the counter wraps at 32 bits).
    fn alloc_req(&mut self) -> u64 {
        self.next_req += self.shards as u64;
        ((self.me.0 as u64) << 32) | (self.next_req & 0xFFFF_FFFF)
    }

    /// Record one span/transport event at this worker, if tracing is on.
    fn trace(&mut self, lock: u32, event: ProtocolEvent) {
        if let Some(ring) = &mut self.recorder {
            ring.record(
                self.shared.epoch.elapsed().as_micros() as u64,
                lock,
                self.me.0,
                event,
            );
        }
    }

    /// Drive one protocol entry point, stamping its events with wall-clock
    /// µs since the cluster epoch when this worker records a trace.
    fn observed<T>(
        &mut self,
        lock: LockId,
        f: impl FnOnce(&mut dyn Observer, &mut EffectBuf) -> T,
    ) -> T {
        match &mut self.recorder {
            Some(ring) => {
                let mut stamp = Stamp {
                    at: self.shared.epoch.elapsed().as_micros() as u64,
                    lock: lock.0,
                    sink: ring,
                };
                f(&mut stamp, &mut self.effect_buf)
            }
            None => f(&mut NullObserver, &mut self.effect_buf),
        }
    }

    /// Fast path for a protocol step whose only effect is the local grant
    /// (the token is here and nothing conflicts — the case a well-sharded
    /// single node hits millions of times per second): complete the reply
    /// immediately and skip the waiter registration the generic path would
    /// insert and remove again within the same call. Returns the reply back
    /// when the step produced anything else and the slow path must run.
    fn fast_grant(&mut self, lock: LockId, req: u64, reply: Reply) -> Option<Reply> {
        let upgraded = match (self.effect_buf.len(), self.effect_buf.iter().next()) {
            (1, Some(Effect::Granted { .. })) => false,
            (1, Some(Effect::Upgraded)) => true,
            _ => return Some(reply),
        };
        self.effect_buf.clear();
        {
            let mut m = self.metrics.lock().expect("metrics mutex");
            // A same-call grant never left the worker; its service time is
            // below the histogram's µs resolution, so record it as 0 rather
            // than pay two `Instant::now` reads per fast-path op.
            m.acquire_latency.record(0);
            m.acquire_hops.record(0);
            if upgraded {
                m.upgrades += 1;
            } else {
                m.acquires += 1;
            }
        }
        if self.recorder.is_some() {
            self.trace(lock.0, ProtocolEvent::RequestGrant { req, hops: 0 });
        }
        reply.complete_into(Ok(()), &mut self.comp_batch);
        None
    }

    /// Drain the effects of one protocol entry point. Sends are encoded
    /// with the correlated frame header — `req` is the request chain being
    /// extended (0 = uncorrelated) and `hops` the causal depth of whatever
    /// triggered this step, so outgoing frames carry `hops + 1`. With
    /// coalescing on, encoded frames are buffered per destination (raising
    /// the in-flight gauge so quiescence can't be declared under them) and
    /// flushed at batch end; otherwise they are wrapped and transmitted
    /// immediately. Grants complete the lock's waiting application call,
    /// record its latency/hop metrics, and close its trace span.
    fn flush(
        &mut self,
        lock: LockId,
        req: u64,
        hops: u16,
        node_epoch: u32,
        put: &dyn Fn(NodeId, Bytes),
    ) {
        let NodeCtx {
            me,
            config,
            shared,
            recorder,
            waiters,
            active,
            endpoint,
            encode_scratch,
            effect_buf,
            metrics,
            pending,
            pending_peers,
            proto_sent,
            wire_sent,
            ..
        } = self;
        for effect in effect_buf.drain() {
            let upgraded = matches!(effect, Effect::Upgraded);
            match effect {
                Effect::Send { to, message } => {
                    shared.messages.fetch_add(1, Ordering::Relaxed);
                    let payload = codec::encode_corr_into(
                        lock,
                        req,
                        hops.saturating_add(1),
                        node_epoch,
                        &message,
                        encode_scratch,
                    );
                    if config.coalesce {
                        // The buffered frame is already owed to the wire:
                        // raise the gauge now so a quiescence probe between
                        // here and the batch-end flush sees a busy cluster.
                        shared.in_flight.fetch_add(1, Ordering::Relaxed);
                        let buf = &mut pending[to.index()];
                        if buf.is_empty() {
                            pending_peers.push(to.0);
                        }
                        buf.push(payload);
                    } else {
                        proto_sent[to.index()] += 1;
                        wire_sent[to.index()] += 1;
                        let frame = match endpoint {
                            Some(ep) => ep.wrap_data(to, lock.0, payload, Instant::now()),
                            None => payload,
                        };
                        put(to, frame);
                    }
                }
                Effect::Granted { .. } | Effect::Upgraded => {
                    if let Some(req0) = active.remove(&lock.0) {
                        // A grant without a matching waiter can occur after a
                        // recovery wave re-issues an operation whose original
                        // waiter was already torn down; count the dropped
                        // completion instead of panicking the worker.
                        let Some(w) = waiters.remove(&(lock.0, req0)) else {
                            shared.replies_dropped.fetch_add(1, Ordering::Relaxed);
                            continue;
                        };
                        let latency = w.started.elapsed().as_micros() as u64;
                        {
                            let mut m = metrics.lock().expect("metrics mutex");
                            m.acquire_latency.record(latency);
                            m.acquire_hops.record(hops as u64);
                            if upgraded {
                                m.upgrades += 1;
                            } else {
                                m.acquires += 1;
                            }
                        }
                        if let Some(ring) = recorder {
                            ring.record(
                                shared.epoch.elapsed().as_micros() as u64,
                                lock.0,
                                me.0,
                                ProtocolEvent::RequestGrant {
                                    req: w.req,
                                    hops: hops as u32,
                                },
                            );
                        }
                        w.reply.complete(Ok(()));
                    }
                }
            }
        }
    }

    /// Transmit every coalesce buffer: one wire frame per destination with
    /// pending traffic (a container when more than one protocol frame is
    /// packed). Called at the end of each input batch.
    fn flush_pending(&mut self, put: &dyn Fn(NodeId, Bytes)) {
        if self.pending_peers.is_empty() {
            return;
        }
        let NodeCtx {
            shared,
            endpoint,
            container_scratch,
            pending,
            pending_peers,
            proto_sent,
            wire_sent,
            ..
        } = self;
        for &peer in pending_peers.iter() {
            let frames = &mut pending[peer as usize];
            let k = frames.len();
            debug_assert!(k > 0, "registered peer has buffered frames");
            let payload = if k == 1 {
                frames.pop().expect("one frame")
            } else {
                let c = codec::encode_container_into(frames, container_scratch);
                frames.clear();
                c
            };
            proto_sent[peer as usize] += k as u64;
            wire_sent[peer as usize] += 1;
            // Containers peek as TRANSPORT_LOCK (their marker occupies the
            // lock-id slot); single frames keep their lock for trace
            // stamping of retransmissions.
            let lock = payload
                .as_ref()
                .get(0..4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .unwrap_or(TRANSPORT_LOCK);
            let to = NodeId(peer);
            let frame = match endpoint {
                Some(ep) => ep.wrap_data(to, lock, payload, Instant::now()),
                None => payload,
            };
            put(to, frame);
            // The physical frame replaced k buffered protocol frames on the
            // gauge; `put` raised it by one, settle the difference after so
            // the gauge never transiently reads idle.
            shared.in_flight.fetch_sub(k as u64, Ordering::Relaxed);
        }
        pending_peers.clear();
    }
}

/// Node `me`'s state for a lock nobody has used: node 0 holds every token
/// initially, every other node points at it. Workers create locks in this
/// state and evict them when they return to it, and the audits synthesize
/// it for locks a member does not report.
pub(crate) fn initial_state(me: NodeId, protocol: ProtocolConfig) -> HierNode {
    if me == NodeId(0) {
        HierNode::with_token(me, protocol)
    } else {
        HierNode::new(me, NodeId(0), protocol)
    }
}

/// This worker's protocol instance for `lock`, created on first touch.
fn lock_state<'l>(
    ctx: &NodeCtx<'_>,
    locks: &'l mut FastMap<u32, HierNode>,
    lock: LockId,
) -> &'l mut HierNode {
    let (me, protocol) = (ctx.me, ctx.config.protocol);
    locks
        .entry(lock.0)
        .or_insert_with(|| initial_state(me, protocol))
}

/// Evict `lock` if the step just taken left its state equal to
/// [`initial_state`] with no operation outstanding on it (waiters are only
/// registered under an `active` entry); the next touch recreates it bit for
/// bit, so the worker keeps only non-initial locks resident.
fn evict_if_initial(ctx: &NodeCtx<'_>, locks: &mut FastMap<u32, HierNode>, lock: LockId) {
    if let Entry::Occupied(entry) = locks.entry(lock.0) {
        if *entry.get() == ctx.initial && !ctx.active.contains_key(&lock.0) {
            entry.remove();
        }
    }
}

/// Process one blocking-or-pipelined acquire.
fn do_acquire(
    ctx: &mut NodeCtx<'_>,
    locks: &mut FastMap<u32, HierNode>,
    lock: LockId,
    mode: Mode,
    reply: Reply,
    put: &dyn Fn(NodeId, Bytes),
) {
    // A second outstanding op on this lock would race the protocol's
    // single-pending model; refuse loudly instead. Operations on *other*
    // locks are unaffected — waiters are keyed `(lock, req)`.
    if ctx.active.contains_key(&lock.0) {
        reply.complete_into(Err(ClusterError::Busy), &mut ctx.comp_batch);
        return;
    }
    let req = ctx.alloc_req();
    ctx.trace(
        lock.0,
        ProtocolEvent::RequestStart {
            req,
            mode,
            upgrade: false,
        },
    );
    let node = lock_state(ctx, locks, lock);
    let result = ctx.observed(lock, |obs, buf| node.on_acquire_into(mode, 0, buf, obs));
    let node_epoch = node.epoch();
    match result {
        Ok(()) => {
            let Some(reply) = ctx.fast_grant(lock, req, reply) else {
                return;
            };
            // Only ops that actually wait pay for a start timestamp.
            let started = Instant::now();
            ctx.active.insert(lock.0, req);
            ctx.waiters.insert(
                (lock.0, req),
                Waiter {
                    reply,
                    req,
                    started,
                },
            );
            ctx.flush(lock, req, 0, node_epoch, put);
        }
        Err(e) => {
            reply.complete_into(Err(ClusterError::Acquire(e)), &mut ctx.comp_batch);
            // A refused acquire may only have created the entry; an
            // admitted one leaves the lock held or pending.
            evict_if_initial(ctx, locks, lock);
        }
    }
}

/// Process one blocking-or-pipelined Rule 7 upgrade.
fn do_upgrade(
    ctx: &mut NodeCtx<'_>,
    locks: &mut FastMap<u32, HierNode>,
    lock: LockId,
    reply: Reply,
    put: &dyn Fn(NodeId, Bytes),
) {
    if ctx.active.contains_key(&lock.0) {
        reply.complete_into(Err(ClusterError::Busy), &mut ctx.comp_batch);
        return;
    }
    let req = ctx.alloc_req();
    ctx.trace(
        lock.0,
        ProtocolEvent::RequestStart {
            req,
            mode: Mode::Write,
            upgrade: true,
        },
    );
    let node = lock_state(ctx, locks, lock);
    let result = ctx.observed(lock, |obs, buf| node.on_upgrade_into(buf, obs));
    let node_epoch = node.epoch();
    match result {
        Ok(()) => {
            let Some(reply) = ctx.fast_grant(lock, req, reply) else {
                return;
            };
            let started = Instant::now();
            ctx.active.insert(lock.0, req);
            ctx.waiters.insert(
                (lock.0, req),
                Waiter {
                    reply,
                    req,
                    started,
                },
            );
            ctx.flush(lock, req, 0, node_epoch, put);
        }
        Err(e) => {
            reply.complete_into(Err(ClusterError::Upgrade(e)), &mut ctx.comp_batch);
            evict_if_initial(ctx, locks, lock);
        }
    }
}

/// Process one blocking-or-pipelined release.
fn do_release(
    ctx: &mut NodeCtx<'_>,
    locks: &mut FastMap<u32, HierNode>,
    lock: LockId,
    reply: Reply,
    put: &dyn Fn(NodeId, Bytes),
) {
    let node = lock_state(ctx, locks, lock);
    let result = ctx.observed(lock, |obs, buf| node.on_release_into(buf, obs));
    let node_epoch = node.epoch();
    match result {
        Ok(()) => {
            // Releases open no span: their frames travel with req 0
            // (uncorrelated).
            ctx.flush(lock, 0, 0, node_epoch, put);
            ctx.metrics.lock().expect("metrics mutex").releases += 1;
            reply.complete_into(Ok(()), &mut ctx.comp_batch);
        }
        Err(e) => reply.complete_into(Err(ClusterError::Release(e)), &mut ctx.comp_batch),
    }
    evict_if_initial(ctx, locks, lock);
}

/// Decode and apply one correlated protocol frame (possibly one sub-frame
/// of a container). Returns false if the frame was malformed.
fn on_protocol_frame(
    ctx: &mut NodeCtx<'_>,
    locks: &mut FastMap<u32, HierNode>,
    from: NodeId,
    payload: Bytes,
    put: &dyn Fn(NodeId, Bytes),
) -> bool {
    match codec::decode_corr(payload) {
        Ok((lock, req, hops, frame_epoch, message)) => {
            // One network leg of request `req`'s causal chain landed here;
            // record it before the handler so the hop precedes its
            // consequences.
            if req != 0 {
                ctx.trace(
                    lock.0,
                    ProtocolEvent::RequestHop {
                        req,
                        hop: hops as u32,
                    },
                );
            }
            let node = lock_state(ctx, locks, lock);
            // Rule R3: frames stamped with a generation other than the
            // receiving node's are fenced (dropped) instead of delivered;
            // `Recover` frames bypass the fence because they *install* the
            // new generation.
            let delivered = ctx.observed(lock, |obs, buf| {
                node.on_frame_into(from, frame_epoch, message, buf, obs)
            });
            if !delivered {
                ctx.fenced += 1;
            }
            let node_epoch = node.epoch();
            ctx.flush(lock, req, hops, node_epoch, put);
            evict_if_initial(ctx, locks, lock);
            true
        }
        Err(_) => false,
    }
}

/// What the worker loop should do after one input.
#[derive(PartialEq, Eq)]
enum Flow {
    /// Keep serving.
    Run,
    /// Clean shutdown: return protocol state.
    Stop,
    /// Simulated crash: abandon state and enter the silent drain loop.
    Crash,
}

/// Reused per-worker scratch for the reliability shim's outputs and
/// container unpacking.
#[derive(Default)]
struct Scratch {
    inbox: Vec<Bytes>,
    subframes: Vec<Bytes>,
    rel_events: Vec<(u32, ProtocolEvent)>,
}

/// Handle one worker input.
fn handle_input(
    input: Input,
    ctx: &mut NodeCtx<'_>,
    locks: &mut FastMap<u32, HierNode>,
    scratch: &mut Scratch,
    put: &dyn Fn(NodeId, Bytes),
) -> Flow {
    let Scratch {
        inbox,
        subframes,
        rel_events,
    } = scratch;
    match input {
        Input::Net { from, frame } => {
            // Transport addresses are worker slots; fold back to the node.
            let from = NodeId(from.0 / ctx.shards);
            let mut direct = None;
            let mut malformed = false;
            match ctx.endpoint.as_mut() {
                Some(ep) => {
                    malformed = ep
                        .on_frame(
                            from,
                            frame,
                            &mut |payload| inbox.push(payload),
                            &mut |lock, event| rel_events.push((lock, event)),
                        )
                        .is_err();
                }
                None => direct = Some(frame),
            }
            for payload in direct.into_iter().chain(inbox.drain(..)) {
                if codec::is_container(&payload) {
                    match codec::decode_container_into(payload, subframes) {
                        Ok(()) => {
                            for sub in subframes.drain(..) {
                                if !on_protocol_frame(ctx, locks, from, sub, put) {
                                    malformed = true;
                                }
                            }
                        }
                        Err(_) => malformed = true,
                    }
                } else if !on_protocol_frame(ctx, locks, from, payload, put) {
                    malformed = true;
                }
            }
            if malformed {
                ctx.decode_errors += 1;
                ctx.trace(TRANSPORT_LOCK, ProtocolEvent::DecodeError { from: from.0 });
            }
            // This physical frame is fully absorbed; any traffic it caused
            // has already raised the gauge above.
            ctx.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            Flow::Run
        }
        Input::Acquire { lock, mode, reply } => {
            ctx.gate.leave(1);
            do_acquire(ctx, locks, lock, mode, reply, put);
            Flow::Run
        }
        Input::TryAcquire { lock, mode, reply } => {
            ctx.gate.leave(1);
            let node = lock_state(ctx, locks, lock);
            if node.can_admit_locally(mode) {
                let req = ctx.alloc_req();
                ctx.trace(
                    lock.0,
                    ProtocolEvent::RequestStart {
                        req,
                        mode,
                        upgrade: false,
                    },
                );
                ctx.observed(lock, |obs, buf| {
                    node.on_acquire_into(mode, 0, buf, obs)
                        .expect("local admit is well-formed")
                });
                // `can_admit_locally` promises "zero messages": the admit
                // may produce only the local grant, never a Send.
                debug_assert!(
                    ctx.effect_buf
                        .iter()
                        .all(|e| matches!(e, Effect::Granted { .. })),
                    "try_acquire fast path emitted network traffic"
                );
                // The fast path registers no waiter, so close the span and
                // count the zero-message, zero-hop grant here.
                let node_epoch = node.epoch();
                ctx.flush(lock, req, 0, node_epoch, put);
                {
                    let mut m = ctx.metrics.lock().expect("metrics mutex");
                    m.acquire_latency.record(0);
                    m.acquire_hops.record(0);
                    m.acquires += 1;
                }
                ctx.trace(lock.0, ProtocolEvent::RequestGrant { req, hops: 0 });
                reply.complete(true);
            } else {
                reply.complete(false);
                evict_if_initial(ctx, locks, lock);
            }
            Flow::Run
        }
        Input::Upgrade { lock, reply } => {
            ctx.gate.leave(1);
            do_upgrade(ctx, locks, lock, reply, put);
            Flow::Run
        }
        Input::Release { lock, reply } => {
            ctx.gate.leave(1);
            do_release(ctx, locks, lock, reply, put);
            Flow::Run
        }
        Input::Ops { ops, tx } => {
            ctx.gate.leave(ops.len());
            // Synchronously-settled outcomes accumulate in the chunk batch
            // and ship as one channel send below; only deferred grants pay
            // a per-completion send (later, when they resolve).
            debug_assert!(ctx.comp_batch.is_empty());
            ctx.comp_batch.reserve(ops.len());
            for op in ops {
                let reply = Reply::shared(tx.clone(), op.lock, op.tag, &ctx.shared.replies_dropped);
                match op.kind {
                    OpKind::Acquire(mode) => do_acquire(ctx, locks, op.lock, mode, reply, put),
                    OpKind::Upgrade => do_upgrade(ctx, locks, op.lock, reply, put),
                    OpKind::Release => do_release(ctx, locks, op.lock, reply, put),
                }
            }
            if !ctx.comp_batch.is_empty() {
                let n = ctx.comp_batch.len() as u64;
                if tx.send(std::mem::take(&mut ctx.comp_batch)).is_err() {
                    ctx.shared.replies_dropped.fetch_add(n, Ordering::Relaxed);
                }
            }
            Flow::Run
        }
        Input::Die => Flow::Crash,
        Input::Panic => panic!("injected worker panic (Input::Panic test hook)"),
        Input::OrphanWaiter { lock } => {
            if let Some(&req) = ctx.active.get(&lock.0) {
                // Dropping the Reply un-completed closes the caller's
                // channel; `active` stays, so the eventual grant exercises
                // the orphaned-completion accounting in `flush`.
                ctx.waiters.remove(&(lock.0, req));
            }
            Flow::Run
        }
        Input::Isolate { dead } => {
            if let Some(ep) = ctx.endpoint.as_mut() {
                ep.forget_peer(dead);
            }
            Flow::Run
        }
        Input::Scan(tx) => {
            let rows: Vec<(u32, bool, u32)> = locks
                .iter()
                .map(|(&l, n)| (l, n.has_token(), n.epoch()))
                .collect();
            // The coordinator may have timed out and gone; that is its
            // problem, not ours.
            let _ = tx.send((ctx.me.0, rows));
            Flow::Run
        }
        Input::PeerDown {
            dead,
            survivors,
            plans,
        } => {
            ctx.trace(
                TRANSPORT_LOCK,
                ProtocolEvent::NodeSuspected { node: dead.0 },
            );
            // The link layer must stop expecting acks from the dead node
            // even if no explicit `Isolate` preceded this wave.
            if let Some(ep) = ctx.endpoint.as_mut() {
                ep.forget_peer(dead);
            }
            for &(lock, new_root, new_epoch) in plans.iter() {
                if shard_of(LockId(lock), ctx.shards as usize) != ctx.shard as usize {
                    continue;
                }
                let lock = LockId(lock);
                let node = lock_state(ctx, locks, lock);
                ctx.observed(lock, |obs, buf| {
                    node.on_peer_down_into(dead, NodeId(new_root), new_epoch, &survivors, buf, obs)
                });
                let node_epoch = node.epoch();
                ctx.flush(lock, 0, 0, node_epoch, put);
                evict_if_initial(ctx, locks, lock);
            }
            Flow::Run
        }
        Input::Shutdown => Flow::Stop,
    }
}

/// One shard worker of `me`: serve inputs from `rx` until `Shutdown`, then
/// hand back this shard's protocol states and telemetry. `slot` is the
/// worker's local slot in `shared`'s per-worker rows.
pub(crate) fn worker_loop(
    shared: &Shared,
    me: NodeId,
    shard: u32,
    slot: usize,
    rx: Receiver<Input>,
) -> NodeExit {
    let config = shared.config;
    let shards = shared.shards as u32;
    // This shard's protocol instances, created on first touch and evicted
    // when a step returns them to their initial state: a node hosting a
    // million locks pays only for the ones not in their initial state. The
    // table is not pre-sized; it grows, and rehashes, with the non-initial
    // locks alone.
    let mut locks: FastMap<u32, HierNode> = FastMap::default();
    let mut ctx = NodeCtx {
        me,
        shard,
        shards,
        config,
        shared,
        gate: &shared.gates[slot],
        fenced: 0,
        decode_errors: 0,
        recorder: (config.trace_capacity > 0).then(|| RingRecorder::new(config.trace_capacity)),
        initial: initial_state(me, config.protocol),
        waiters: FastMap::default(),
        active: FastMap::default(),
        endpoint: config
            .reliable
            .map(|cfg| Endpoint::new(me, config.nodes, cfg, Arc::clone(&shared.unacked))),
        // One long-lived encode buffer per worker: every outgoing frame is
        // built in place and copied out, so steady-state transmission does
        // no buffer growth. The container scratch is separate because a
        // container is assembled from frames the encode scratch already
        // produced.
        encode_scratch: bytes::BytesMut::with_capacity(64),
        container_scratch: bytes::BytesMut::with_capacity(256),
        // One long-lived effect sink per worker: every protocol entry point
        // drains into it via the `*_into` API, so steady-state protocol
        // steps do no heap allocation for effects.
        effect_buf: EffectBuf::new(),
        metrics: &shared.metrics[slot],
        next_req: shard as u64,
        pending: (0..config.nodes).map(|_| Vec::new()).collect(),
        pending_peers: Vec::with_capacity(config.nodes),
        proto_sent: vec![0; config.nodes],
        wire_sent: vec![0; config.nodes],
        comp_batch: Vec::new(),
    };

    // Every physical frame leaving this worker raises the in-flight gauge;
    // the gauge falls when the receiving worker finishes processing it (or
    // when the transport kills it). Peers are addressed by node; the slot
    // is the same shard on the destination (lock → shard is
    // node-independent, so lock state for this shard's locks lives on this
    // shard everywhere).
    let my_slot = NodeId(me.0 * shards + shard);
    let put = |to: NodeId, frame: Bytes| {
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        shared
            .transport
            .send(my_slot, NodeId(to.0 * shards + shard), frame);
    };
    let mut scratch = Scratch::default();

    loop {
        // Refresh the heartbeat every iteration; a worker that stops
        // looping (crashed, panicked, wedged) goes stale and the failure
        // detector flags its node.
        shared.beats[slot].store(shared.epoch.elapsed().as_micros() as u64, Ordering::Relaxed);
        // With unacked frames outstanding, sleep only until the earliest
        // retransmission deadline; either way wake at least every
        // `HEARTBEAT` so the stamp above stays fresh while idle.
        let wait = match ctx.endpoint.as_ref().and_then(Endpoint::next_due) {
            Some(due) => due.saturating_duration_since(Instant::now()).min(HEARTBEAT),
            None => HEARTBEAT,
        };
        let mut next = match rx.recv_timeout(wait) {
            Ok(input) => Some(input),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        // Drain a batch: the first (blocking) input plus whatever else is
        // already queued, bounded so coalesce flushes and retransmission
        // ticks stay timely under sustained load.
        let mut flow = Flow::Run;
        let mut drained = 0;
        while let Some(input) = next {
            flow = handle_input(input, &mut ctx, &mut locks, &mut scratch, &put);
            drained += 1;
            next = if flow == Flow::Run && drained < BATCH {
                rx.try_recv().ok()
            } else {
                None
            };
        }
        if flow == Flow::Crash {
            // Simulated node death. Everything buffered dies with the node
            // *before* the batch-boundary flush below would transmit it: a
            // crashed node sends nothing, ever again.
            for (_, w) in ctx.waiters.drain() {
                w.reply.complete(Err(ClusterError::WorkerDied));
            }
            ctx.active.clear();
            for &peer in &ctx.pending_peers {
                let k = ctx.pending[peer as usize].len() as u64;
                ctx.pending[peer as usize].clear();
                shared.in_flight.fetch_sub(k, Ordering::Relaxed);
            }
            ctx.pending_peers.clear();
            ctx.effect_buf.clear();
            // Stop owing the link layer anything (and release whatever it
            // still counted against the unacked gauge on our behalf).
            if let Some(ep) = ctx.endpoint.as_mut() {
                for n in 0..config.nodes as u32 {
                    ep.forget_peer(NodeId(n));
                }
            }
            // An empty exit: a dead node's state and link statistics are
            // gone, and the shutdown audit must not see them.
            locks = FastMap::default();
            shared.resident[slot].store(0, Ordering::Relaxed);
            ctx.endpoint = None;
            ctx.proto_sent.clear();
            crashed_loop(&rx, ctx.gate, &shared.in_flight);
            break;
        }
        // Batch boundary: publish the resident-lock gauge (a plain store to
        // this worker's own line), transmit coalesced traffic, then let the
        // reliability shim retransmit and flush acks.
        shared.resident[slot].store(locks.len() as u64, Ordering::Relaxed);
        ctx.flush_pending(&put);
        if let Some(ep) = ctx.endpoint.as_mut() {
            let rel_events = &mut scratch.rel_events;
            let now = Instant::now();
            if ep.next_due().is_some_and(|due| due <= now) {
                ep.on_tick(now, &mut |to, frame| put(to, frame), &mut |lock, event| {
                    rel_events.push((lock, event))
                });
            }
            // Flush cumulative acks owed after this round of input.
            ep.take_acks(&mut |to, frame| put(to, frame));
            if let Some(ring) = &mut ctx.recorder {
                for (lock, event) in rel_events.drain(..) {
                    ring.record(shared.epoch.elapsed().as_micros() as u64, lock, me.0, event);
                }
            }
            rel_events.clear();
        }
        if flow == Flow::Stop {
            break;
        }
    }
    let (trace, trace_dropped) = match ctx.recorder {
        Some(ring) => {
            let dropped = ring.dropped();
            (ring.into_records(), dropped)
        }
        None => (Vec::new(), 0),
    };
    let coalesce = ctx
        .proto_sent
        .iter()
        .zip(ctx.wire_sent.iter())
        .enumerate()
        .filter(|(_, (&p, &w))| p + w > 0)
        .map(|(peer, (&p, &w))| CoalesceStat {
            peer: peer as u32,
            proto_sent: p,
            wire_sent: w,
        })
        .collect();
    NodeExit {
        locks,
        trace,
        trace_dropped,
        decode_errors: ctx.decode_errors,
        frames_fenced: ctx.fenced,
        links: ctx.endpoint.map(|ep| ep.snapshots()).unwrap_or_default(),
        coalesce,
    }
}

/// The post-crash drain loop: a dead node neither sends nor processes, but
/// it must keep *consuming* so the cluster's accounting stays truthful —
/// every arriving physical frame still decrements the in-flight gauge, and
/// every application operation is refused with
/// [`ClusterError::WorkerDied`] instead of hanging its caller. Exits on
/// `Shutdown` (or channel closure).
fn crashed_loop(rx: &Receiver<Input>, gate: &ShardGate, in_flight: &AtomicU64) {
    loop {
        match rx.recv() {
            Ok(Input::Net { .. }) => {
                in_flight.fetch_sub(1, Ordering::Relaxed);
            }
            Ok(Input::Acquire { reply, .. })
            | Ok(Input::Upgrade { reply, .. })
            | Ok(Input::Release { reply, .. }) => {
                gate.leave(1);
                reply.complete(Err(ClusterError::WorkerDied));
            }
            Ok(Input::TryAcquire { reply, .. }) => {
                gate.leave(1);
                reply.complete(false);
            }
            Ok(Input::Ops { ops, tx }) => {
                gate.leave(ops.len());
                let comps: Vec<Completion> = ops
                    .iter()
                    .map(|op| Completion {
                        lock: op.lock,
                        tag: op.tag,
                        result: Err(ClusterError::WorkerDied),
                    })
                    .collect();
                let _ = tx.send(comps);
            }
            Ok(Input::Scan(_))
            | Ok(Input::Die)
            | Ok(Input::Isolate { .. })
            | Ok(Input::PeerDown { .. })
            | Ok(Input::Panic)
            | Ok(Input::OrphanWaiter { .. }) => {}
            Ok(Input::Shutdown) | Err(_) => break,
        }
    }
}
