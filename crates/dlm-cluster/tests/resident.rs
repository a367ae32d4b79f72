//! Lock residency: a shard worker keeps a lock's state only while it
//! differs from the state the worker creates on first touch, and evicts it
//! when a step returns it there. These tests read the live
//! `dlm_shard_locks_resident` gauge, audit the final states, and run crash
//! recovery over evicted locks.

use dlm_cluster::{Cluster, ClusterConfig, ClusterError, LockId, Mode};
use std::time::{Duration, Instant};

fn cluster(nodes: usize, locks: usize, shards: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        locks,
        shards,
        ..Default::default()
    })
}

/// `node`'s `dlm_shard_locks_resident` values in a snapshot, one per shard.
fn resident(snap: &str, node: u32) -> Vec<u64> {
    let prefix = format!("dlm_shard_locks_resident{{node=\"{node}\",");
    snap.lines()
        .filter(|l| l.starts_with(&prefix))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect()
}

/// Wait, bounded, until `node`'s resident gauges sum to `want`. A worker
/// publishes the gauge at the end of the input batch in which it already
/// answered the batch's operations, so a caller can see its reply first.
fn await_resident(c: &Cluster, node: u32, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let snap = c.metrics_snapshot();
        let per_shard = resident(&snap, node);
        assert_eq!(per_shard.len(), c.shards(), "one series per shard");
        let sum: u64 = per_shard.iter().sum();
        if sum == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "node {node}: {sum} locks resident ({per_shard:?}), expected {want}"
        );
        std::thread::yield_now();
    }
}

/// One member churning Write acquire/release pairs over 10k locks ends
/// with nothing resident: every release returns its lock to the state the
/// worker creates, and so does a refused release that only created it.
#[test]
fn single_member_churn_leaves_no_lock_resident() {
    const LOCKS: u32 = 10_000;
    let c = cluster(1, LOCKS as usize, 2);
    let h = c.handle(0);
    for l in 0..LOCKS {
        h.acquire(LockId(l), Mode::Write).unwrap();
        if l == LOCKS / 2 {
            // Mid-run, the held lock is resident.
            await_resident(&c, 0, 1);
        }
        h.release(LockId(l)).unwrap();
    }
    assert!(matches!(
        h.release(LockId(7)),
        Err(ClusterError::Release(_))
    ));
    await_resident(&c, 0, 0);
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// In a 3-member cluster a lock whose token moved stays resident on every
/// member it visited (the grant counters remember the handoff), while a
/// lock node 0 only used at home does not; the audit is clean either way.
#[test]
fn moved_tokens_stay_resident_home_only_locks_do_not() {
    const MOVED: u32 = 40;
    let c = cluster(3, 2 * MOVED as usize, 1);
    let (h0, h1, h2) = (c.handle(0), c.handle(1), c.handle(2));
    for l in 0..MOVED {
        for h in [&h1, &h2] {
            h.acquire(LockId(l), Mode::Write).unwrap();
            h.release(LockId(l)).unwrap();
        }
        h0.acquire(LockId(MOVED + l), Mode::Write).unwrap();
        h0.release(LockId(MOVED + l)).unwrap();
    }
    c.quiesce(Duration::from_millis(5));
    for node in 0..3 {
        await_resident(&c, node, MOVED as u64);
    }
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
}

/// Node 0 evicts a lock it used only at home (`HOME`), while `MOVED`'s
/// token sits at member 2. Member 2 crashes: recovery repairs `MOVED`
/// only, since `HOME` is initial on every node, the dead one included, and
/// member 1 can still take `HOME` with a clean audit afterwards.
#[test]
fn evicted_lock_survives_another_members_crash() {
    const HOME: LockId = LockId(5);
    const MOVED: LockId = LockId(1);
    let c = cluster(3, 8, 1);
    let (h0, h1, h2) = (c.handle(0), c.handle(1), c.handle(2));
    h0.acquire(HOME, Mode::Write).unwrap();
    h0.release(HOME).unwrap();
    // Lazy release: the token stays at member 2.
    h2.acquire(MOVED, Mode::Write).unwrap();
    h2.release(MOVED).unwrap();
    c.quiesce(Duration::from_millis(5));
    await_resident(&c, 0, 1);
    c.crash_node(2);
    assert_eq!(c.recover(2), 1, "only the lock whose token moved");
    for h in [&h1, &h0] {
        for lock in [HOME, MOVED] {
            h.acquire(lock, Mode::Write).unwrap();
            h.release(lock).unwrap();
        }
    }
    c.quiesce(Duration::from_millis(5));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.replies_dropped, 0);
}

/// Node 0 evicts a home-only lock and then crashes: recovery plans every
/// lock, the lowest survivor regenerates the evicted lock's token in the
/// new epoch, and both survivors can take it with a clean audit.
#[test]
fn evicted_lock_token_regenerates_when_node_zero_dies() {
    const LOCKS: usize = 8;
    const HOME: LockId = LockId(5);
    let c = cluster(3, LOCKS, 1);
    let h0 = c.handle(0);
    h0.acquire(HOME, Mode::Write).unwrap();
    h0.release(HOME).unwrap();
    c.quiesce(Duration::from_millis(5));
    await_resident(&c, 0, 0);
    c.crash_node(0);
    assert_eq!(c.recover(0), LOCKS, "every lock's initial token died");
    for n in [1, 2] {
        let h = c.handle(n);
        h.acquire(HOME, Mode::Write).unwrap();
        h.release(HOME).unwrap();
    }
    c.quiesce(Duration::from_millis(5));
    let report = c.shutdown();
    assert!(report.audit_errors.is_empty(), "{:?}", report.audit_errors);
    assert_eq!(report.replies_dropped, 0);
}
