//! `dlm-harness` — the multi-process cluster driver: spawns one `dlm-node`
//! process per member on loopback sockets, drives the paper's workloads
//! through them, waits for global quiescence, shuts every member down,
//! and audits the reassembled cross-process state.
//!
//! Re-measures the evaluation end to end **over a real wire**: the
//! Figure 7/8 Linux-cluster workload, the Figure 9/10 IBM-SP workloads
//! (idle:CS ratios 25 and 1), and the shard-churn partitioned workload,
//! all over TCP (or UDP with `--udp <loss>`). Think times are compressed
//! by `--scale` (default 100) so the full suite runs in seconds; the
//! think-to-CS ratio — what the figures vary — is preserved.
//!
//! ```text
//! dlm-harness [--nodes 4] [--scale 100] [--shards 1] [--udp <loss>]
//!             [--out results] [--smoke] [--crash-smoke <seed>]
//! ```
//!
//! `--smoke` runs a bounded 3-process TCP sanity check (tiny workload,
//! hard deadline, non-zero exit on any audit error) for CI.
//! `--crash-smoke <seed>` runs the bounded crash-recovery check: a
//! 3-process TCP cluster, a seed-chosen member holding the table token is
//! SIGKILLed, the survivors' failure detectors must flag it, the driver
//! choreographs the scan/plan/repair wave, and the run fails unless Write
//! service resumes with exactly one token in the new epoch and a clean
//! survivor audit.

use dlm_cluster::{audit_process_states, audit_surviving_states, plan_recovery, ScanReport};
use dlm_core::{HierNode, ProtocolConfig};
use dlm_harness::sockload::hex_decode;
use dlm_metrics::Histogram;
use dlm_workload::{ProtocolKind, WorkloadParams};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

struct Args {
    nodes: usize,
    scale: u64,
    shards: usize,
    udp: Option<f64>,
    out: String,
    smoke: bool,
    crash_smoke: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        nodes: 4,
        scale: 100,
        shards: 1,
        udp: None,
        out: "results".into(),
        smoke: false,
        crash_smoke: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("flag value");
        match flag.as_str() {
            "--nodes" => args.nodes = value().parse().expect("--nodes"),
            "--scale" => args.scale = value().parse().expect("--scale"),
            "--shards" => args.shards = value().parse().expect("--shards"),
            "--udp" => args.udp = Some(value().parse().expect("--udp")),
            "--out" => args.out = value(),
            "--smoke" => args.smoke = true,
            "--crash-smoke" => args.crash_smoke = Some(value().parse().expect("--crash-smoke")),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    assert!(args.nodes >= 2, "a cluster needs at least two members");
    args
}

/// One spawned `dlm-node` with a line-oriented reader thread, so every
/// read is deadline-bounded (a hung member must not hang the driver).
struct Member {
    child: Child,
    stdin: ChildStdin,
    lines: crossbeam::channel::Receiver<String>,
}

struct Cluster {
    members: Vec<Member>,
    deadline: Instant,
}

impl Cluster {
    /// Reserve loopback ports, spawn one `dlm-node` per member, and wait
    /// for every member's `ready`.
    fn spawn(
        nodes: usize,
        locks: usize,
        shards: usize,
        udp: Option<f64>,
        deadline: Instant,
    ) -> Cluster {
        let addrs: Vec<SocketAddr> = if udp.is_some() {
            (0..nodes)
                .map(|_| {
                    UdpSocket::bind("127.0.0.1:0")
                        .expect("reserve udp port")
                        .local_addr()
                        .expect("local addr")
                })
                .collect()
        } else {
            (0..nodes)
                .map(|_| {
                    TcpListener::bind("127.0.0.1:0")
                        .expect("reserve tcp port")
                        .local_addr()
                        .expect("local addr")
                })
                .collect()
        };
        let addr_list = addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let exe = std::env::current_exe()
            .expect("current exe")
            .parent()
            .expect("exe dir")
            .join("dlm-node");
        let members = (0..nodes)
            .map(|me| {
                let mut cmd = Command::new(&exe);
                cmd.arg("--me")
                    .arg(me.to_string())
                    .arg("--addrs")
                    .arg(&addr_list)
                    .arg("--locks")
                    .arg(locks.to_string())
                    .arg("--shards")
                    .arg(shards.to_string())
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped());
                if let Some(loss) = udp {
                    cmd.arg("--udp")
                        .arg(format!("{loss},{}", 0x5EED + me as u64));
                }
                let mut child = cmd.spawn().unwrap_or_else(|e| {
                    panic!(
                        "spawn {}: {e} (build the dlm-node binary first)",
                        exe.display()
                    )
                });
                let stdin = child.stdin.take().expect("child stdin");
                let stdout = child.stdout.take().expect("child stdout");
                let (tx, lines) = crossbeam::channel::unbounded();
                std::thread::spawn(move || {
                    use std::io::BufRead;
                    for line in std::io::BufReader::new(stdout).lines() {
                        let Ok(line) = line else { break };
                        if tx.send(line).is_err() {
                            break;
                        }
                    }
                });
                Member {
                    child,
                    stdin,
                    lines,
                }
            })
            .collect();
        let mut cluster = Cluster { members, deadline };
        for me in 0..nodes {
            let line = cluster.recv(me);
            if line != "ready" {
                cluster.fail(&format!("member {me}: expected ready, got {line:?}"));
            }
        }
        cluster
    }

    fn send(&mut self, me: usize, command: &str) {
        if writeln!(self.members[me].stdin, "{command}").is_err() {
            self.fail(&format!("member {me}: stdin closed"));
        }
    }

    fn recv(&mut self, me: usize) -> String {
        let remaining = self
            .deadline
            .checked_duration_since(Instant::now())
            .unwrap_or(Duration::ZERO);
        match self.members[me].lines.recv_timeout(remaining) {
            Ok(line) => line,
            Err(_) => self.fail(&format!("member {me}: no output before the deadline")),
        }
    }

    /// Kill every member and abort: the bounded-deadline escape hatch.
    fn fail(&mut self, message: &str) -> ! {
        for m in &mut self.members {
            let _ = m.child.kill();
        }
        eprintln!("dlm-harness: {message}");
        std::process::exit(1);
    }

    fn len(&self) -> usize {
        self.members.len()
    }
}

/// Everything one workload run produced, cluster-wide.
struct RunStats {
    wall: Duration,
    ops: u64,
    acquires: u64,
    messages: u64,
    latency: Histogram,
    retransmits: u64,
    dropped: u64,
    wire_bytes: u64,
    resets: u64,
    decode_errors: u64,
    audit_errors: usize,
}

/// Drive one already-spawned cluster through one workload command, then
/// quiesce, shut down, and audit.
fn drive(mut cluster: Cluster, command: &str, protocol: ProtocolConfig) -> RunStats {
    let n = cluster.len();
    let start = Instant::now();
    for me in 0..n {
        cluster.send(me, command);
    }
    let mut ops = 0u64;
    let mut acquires = 0u64;
    for me in 0..n {
        let line = cluster.recv(me);
        let nums: Vec<u64> = line
            .strip_prefix("done ")
            .unwrap_or_else(|| cluster.fail(&format!("member {me}: expected done, got {line:?}")))
            .split_whitespace()
            .map(|w| w.parse().expect("done counts"))
            .collect();
        ops += nums[0];
        acquires += nums[1];
    }
    let wall = start.elapsed();

    // Global quiescence: every member simultaneously idle, message sum
    // stable across two consecutive polls.
    let mut last_sum = u64::MAX;
    loop {
        let mut all_idle = true;
        let mut sum = 0u64;
        for me in 0..n {
            cluster.send(me, "idle?");
            let line = cluster.recv(me);
            let (state, count) = line.split_once(' ').unwrap_or(("busy", "0"));
            all_idle &= state == "idle";
            sum += count.parse::<u64>().unwrap_or(0);
        }
        if all_idle && sum == last_sum {
            break;
        }
        last_sum = sum;
        if Instant::now() >= cluster.deadline {
            cluster.fail("cluster never reached global quiescence");
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    // Live scrape: every member answers `metrics` with its own series.
    for me in 0..n {
        cluster.send(me, "metrics");
        let series = [
            format!("dlm_acquires_total{{node=\"{me}\"}} "),
            format!("dlm_shard_locks_resident{{node=\"{me}\",shard=\"0\"}} "),
        ];
        let mut seen = [false; 2];
        loop {
            let line = cluster.recv(me);
            if line == "end" {
                break;
            }
            for (s, seen) in series.iter().zip(&mut seen) {
                *seen |= line.starts_with(s);
            }
        }
        if let Some((s, _)) = series.iter().zip(seen).find(|(_, seen)| !seen) {
            cluster.fail(&format!("member {me}: metrics snapshot lacks {s:?}"));
        }
    }

    // Shutdown: collect every member's latency histogram, final states,
    // and link counters, then reassemble the cross-process audit.
    let mut stats = RunStats {
        wall,
        ops,
        acquires,
        messages: 0,
        latency: Histogram::new(),
        retransmits: 0,
        dropped: 0,
        wire_bytes: 0,
        resets: 0,
        decode_errors: 0,
        audit_errors: 0,
    };
    let mut all_states: Vec<Vec<(u32, HierNode)>> = Vec::with_capacity(n);
    for me in 0..n {
        cluster.send(me, "shutdown");
        let mut states = Vec::new();
        loop {
            let line = cluster.recv(me);
            let mut words = line.split_whitespace();
            match words.next() {
                Some("lat") => {
                    let compact = words.next().unwrap_or("");
                    match Histogram::decode_compact(compact) {
                        Ok(h) => stats.latency.merge(&h),
                        Err(e) => cluster.fail(&format!("member {me}: bad histogram: {e}")),
                    }
                }
                Some("state") => {
                    let lock: u32 = words.next().and_then(|w| w.parse().ok()).unwrap_or(0);
                    let hex = words.next().unwrap_or("");
                    let Some(bytes) = hex_decode(hex) else {
                        cluster.fail(&format!("member {me}: undecodable state hex"));
                    };
                    let Some(node) = HierNode::decode_state(&bytes, protocol) else {
                        cluster.fail(&format!("member {me}: undecodable state for lock {lock}"));
                    };
                    states.push((lock, node));
                }
                Some("link") => {
                    let nums: Vec<u64> = words.map(|w| w.parse().expect("link counters")).collect();
                    // from to retransmits dropped wire_bytes resets proto wire
                    stats.retransmits += nums[2];
                    stats.dropped += nums[3];
                    stats.wire_bytes += nums[4];
                    stats.resets += nums[5];
                }
                Some("exit") => {
                    let nums: Vec<u64> = words.map(|w| w.parse().expect("exit counters")).collect();
                    stats.messages += nums[0];
                    stats.decode_errors += nums[1];
                    break;
                }
                _ => cluster.fail(&format!("member {me}: unexpected line {line:?}")),
            }
        }
        all_states.push(states);
    }
    // Link counters are double-observed (each endpoint reports its side);
    // wire totals were summed over both, so halve the symmetric ones.
    stats.wire_bytes /= 2;
    for m in &mut cluster.members {
        let _ = m.child.wait();
    }
    let errors = audit_process_states(protocol, &all_states);
    if !errors.is_empty() {
        eprintln!("audit errors: {errors:?}");
    }
    stats.audit_errors = errors.len();
    stats
}

struct FigureRow {
    name: String,
    stats: RunStats,
}

fn run_workload_figure(
    name: String,
    params: &WorkloadParams,
    args: &Args,
    budget: Duration,
) -> FigureRow {
    let cluster = Cluster::spawn(
        params.nodes,
        params.lock_count(),
        args.shards,
        args.udp,
        Instant::now() + budget,
    );
    let command = format!(
        "run {} {} {} {} {} {} {}",
        params.entries,
        params.cs_mean,
        params.idle_mean,
        params.ops_per_node,
        params.seed,
        args.scale,
        params.hot_entry_percent
    );
    let stats = drive(cluster, &command, params.hier_config);
    FigureRow { name, stats }
}

/// The `--crash-smoke` run: SIGKILL a token-holding member of a 3-process
/// TCP cluster and drive the recovery protocol end to end from the
/// outside, exactly as an operator (or supervisor) would: poll the
/// survivors' failure detectors, scan, plan centrally, broadcast the
/// repair wave, and verify restored service plus a clean reassembled
/// audit. Exits non-zero on any failure.
fn crash_smoke(seed: u64, args: &Args) {
    let nodes = 3usize;
    let locks = 1usize;
    let protocol = ProtocolConfig::paper();
    // Seeded victim among the non-zero members; it pulls the table token
    // with a held Write so its death forces R2 token regeneration.
    let victim = 1 + (seed % (nodes as u64 - 1)) as usize;
    let survivors: Vec<u32> = (0..nodes as u32).filter(|&n| n != victim as u32).collect();
    let surv_csv = survivors
        .iter()
        .map(u32::to_string)
        .collect::<Vec<_>>()
        .join(",");

    let mut cluster = Cluster::spawn(
        nodes,
        locks,
        args.shards,
        args.udp,
        Instant::now() + Duration::from_secs(60),
    );
    cluster.send(victim, "acquire 0 w");
    let line = cluster.recv(victim);
    if line != "ok" {
        cluster.fail(&format!("victim acquire: expected ok, got {line:?}"));
    }

    let killed_at = Instant::now();
    let _ = cluster.members[victim].child.kill();
    let _ = cluster.members[victim].child.wait();

    // Failure detection: every survivor's socket detector must flag the
    // victim (its connections died with the process).
    loop {
        let mut all_saw = true;
        for &s in &survivors {
            cluster.send(s as usize, "suspects");
            let line = cluster.recv(s as usize);
            let flagged = line
                .strip_prefix("suspects")
                .map(|rest| {
                    rest.split_whitespace()
                        .any(|w| w.parse::<u32>() == Ok(victim as u32))
                })
                .unwrap_or(false);
            all_saw &= flagged;
        }
        if all_saw {
            break;
        }
        if Instant::now() >= cluster.deadline {
            cluster.fail("survivors never suspected the killed member");
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    // Scan → plan → repair: the driver is the recovery coordinator.
    let mut rows: Vec<ScanReport> = Vec::new();
    for &s in &survivors {
        cluster.send(s as usize, "scan");
        let line = cluster.recv(s as usize);
        let Some(body) = line.strip_prefix("locks") else {
            cluster.fail(&format!("member {s}: expected locks, got {line:?}"));
        };
        let locks_row: Vec<(u32, bool, u32)> = body
            .split_whitespace()
            .map(|item| {
                let mut it = item.split(':');
                let lock: u32 = it.next().and_then(|w| w.parse().ok()).expect("scan lock");
                let has: u32 = it.next().and_then(|w| w.parse().ok()).expect("scan token");
                let epoch: u32 = it.next().and_then(|w| w.parse().ok()).expect("scan epoch");
                (lock, has != 0, epoch)
            })
            .collect();
        rows.push((s, locks_row));
    }
    let plans = plan_recovery(&rows, victim as u32, &survivors, locks);
    if plans.is_empty() {
        cluster.fail("the dead holder's lock was not planned for repair");
    }
    let plans_csv = plans
        .iter()
        .map(|(l, r, e)| format!("{l}:{r}:{e}"))
        .collect::<Vec<_>>()
        .join(",");
    for &s in &survivors {
        cluster.send(
            s as usize,
            &format!("repair {victim} {surv_csv} {plans_csv}"),
        );
        let line = cluster.recv(s as usize);
        if line != "ok" {
            cluster.fail(&format!("member {s}: repair failed: {line:?}"));
        }
    }

    // Restored service: every survivor write-cycles the repaired lock.
    for &s in &survivors {
        for command in ["acquire 0 w", "release 0"] {
            cluster.send(s as usize, command);
            let line = cluster.recv(s as usize);
            if line != "ok" {
                cluster.fail(&format!("member {s}: {command}: {line:?}"));
            }
        }
    }
    let recovery_ms = killed_at.elapsed().as_millis();

    // Exactly one token across the survivors, in the regenerated epoch.
    let mut tokens: Vec<(u32, u32, u32)> = Vec::new();
    for &s in &survivors {
        cluster.send(s as usize, "scan");
        let line = cluster.recv(s as usize);
        for item in line.strip_prefix("locks").unwrap_or("").split_whitespace() {
            let mut it = item.split(':');
            let lock: u32 = it.next().and_then(|w| w.parse().ok()).expect("scan lock");
            let has: u32 = it.next().and_then(|w| w.parse().ok()).expect("scan token");
            let epoch: u32 = it.next().and_then(|w| w.parse().ok()).expect("scan epoch");
            if has != 0 {
                tokens.push((s, lock, epoch));
            }
        }
    }
    if tokens.len() != 1 || tokens[0].2 < 1 {
        cluster.fail(&format!("expected one token in epoch >= 1, got {tokens:?}"));
    }

    // Global quiescence over the survivors, then shutdown + audit.
    let mut last_sum = u64::MAX;
    loop {
        let mut all_idle = true;
        let mut sum = 0u64;
        for &s in &survivors {
            cluster.send(s as usize, "idle?");
            let line = cluster.recv(s as usize);
            let (state, count) = line.split_once(' ').unwrap_or(("busy", "0"));
            all_idle &= state == "idle";
            sum += count.parse::<u64>().unwrap_or(0);
        }
        if all_idle && sum == last_sum {
            break;
        }
        last_sum = sum;
        if Instant::now() >= cluster.deadline {
            cluster.fail("survivors never reached quiescence");
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut all_states: Vec<Vec<(u32, HierNode)>> = vec![Vec::new(); nodes];
    let mut decode_errors = 0u64;
    let mut replies_dropped = 0u64;
    for &s in &survivors {
        cluster.send(s as usize, "shutdown");
        loop {
            let line = cluster.recv(s as usize);
            let mut words = line.split_whitespace();
            match words.next() {
                Some("lat") | Some("link") => {}
                Some("state") => {
                    let lock: u32 = words.next().and_then(|w| w.parse().ok()).unwrap_or(0);
                    let hex = words.next().unwrap_or("");
                    let Some(bytes) = hex_decode(hex) else {
                        cluster.fail(&format!("member {s}: undecodable state hex"));
                    };
                    let Some(node) = HierNode::decode_state(&bytes, protocol) else {
                        cluster.fail(&format!("member {s}: undecodable state for lock {lock}"));
                    };
                    all_states[s as usize].push((lock, node));
                }
                Some("exit") => {
                    let nums: Vec<u64> = words.map(|w| w.parse().expect("exit counters")).collect();
                    decode_errors += nums[1];
                    replies_dropped += nums[2];
                    break;
                }
                _ => cluster.fail(&format!("member {s}: unexpected line {line:?}")),
            }
        }
    }
    for m in &mut cluster.members {
        let _ = m.child.wait();
    }
    let errors = audit_surviving_states(protocol, &all_states, &[victim as u32]);
    assert!(errors.is_empty(), "crash-smoke audit: {errors:?}");
    assert_eq!(decode_errors, 0, "crash-smoke saw malformed frames");
    assert_eq!(replies_dropped, 0, "crash-smoke dropped a reply");
    println!(
        "crash-smoke ok: seed {seed} killed member {victim}, {} survivors recovered \
         to epoch {} in {recovery_ms} ms (one token at member {})",
        survivors.len(),
        tokens[0].2,
        tokens[0].0
    );
}

fn main() {
    let args = parse_args();

    if let Some(seed) = args.crash_smoke {
        crash_smoke(seed, &args);
        return;
    }
    if args.smoke {
        // CI sanity check: 3 processes, tiny Figure-7 workload, hard
        // deadline, loud non-zero exit on any audit or decode error.
        let mut params = WorkloadParams::linux_cluster(3, ProtocolKind::Hier);
        params.ops_per_node = 5;
        let row = run_workload_figure("smoke".into(), &params, &args, Duration::from_secs(60));
        assert_eq!(row.stats.audit_errors, 0, "smoke audit failed");
        assert_eq!(row.stats.decode_errors, 0, "smoke saw malformed frames");
        assert_eq!(row.stats.ops, 3 * 5);
        println!(
            "smoke ok: {} ops, {} msgs, {} wire bytes over 3 processes in {:?}",
            row.stats.ops, row.stats.messages, row.stats.wire_bytes, row.stats.wall
        );
        return;
    }

    let nodes = args.nodes;
    let budget = Duration::from_secs(120);
    let wire = if args.udp.is_some() { "udp" } else { "tcp" };
    let mut rows = Vec::new();

    // Figures 7 and 8 share the §4.1 Linux-cluster workload: one run,
    // two readings (latency and messages-per-request).
    let fig7 = WorkloadParams::linux_cluster(nodes, ProtocolKind::Hier);
    rows.push(run_workload_figure(
        format!("fig7_{wire}"),
        &fig7,
        &args,
        budget,
    ));
    // Figures 9 and 10: the §4.2 IBM-SP workload at idle:CS ratios 25 and 1.
    let fig9 = WorkloadParams::ibm_sp(nodes, 25);
    rows.push(run_workload_figure(
        format!("fig9_{wire}"),
        &fig9,
        &args,
        budget,
    ));
    let fig10 = WorkloadParams::ibm_sp(nodes, 1);
    rows.push(run_workload_figure(
        format!("fig10_{wire}"),
        &fig10,
        &args,
        budget,
    ));
    // Shard churn: each member hammers its own entry lock (locks = one
    // entry per member + the table), measuring the partitioned fast path.
    let churn_cluster = Cluster::spawn(
        nodes,
        nodes + 1,
        args.shards,
        args.udp,
        Instant::now() + budget,
    );
    let churn_stats = drive(churn_cluster, "churn 500", ProtocolConfig::paper());
    rows.push(FigureRow {
        name: format!("shard_churn_{wire}"),
        stats: churn_stats,
    });

    println!(
        "socket cluster figures — {nodes} processes over {wire} loopback, think times ÷{}",
        args.scale
    );
    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>12} {:>10} {:>12} {:>8} {:>7}",
        "figure",
        "ops",
        "msgs/op",
        "lat p50 µs",
        "lat p95 µs",
        "wall ms",
        "wire bytes",
        "rexmit",
        "audit"
    );
    for row in &rows {
        let s = &row.stats;
        println!(
            "{:<16} {:>8} {:>10.2} {:>12} {:>12} {:>10} {:>12} {:>8} {:>7}",
            row.name,
            s.ops,
            s.messages as f64 / s.acquires.max(1) as f64,
            s.latency.quantile(0.50),
            s.latency.quantile(0.95),
            s.wall.as_millis(),
            s.wire_bytes,
            s.retransmits,
            if s.audit_errors == 0 { "clean" } else { "FAIL" }
        );
    }

    std::fs::create_dir_all(&args.out).expect("results dir");
    let path = std::path::Path::new(&args.out).join(format!("socket_figures_{wire}.tsv"));
    let mut f = std::fs::File::create(&path).expect("tsv file");
    writeln!(
        f,
        "figure\tnodes\tops\tacquires\tmessages\tmsgs_per_acquire\tlat_p50_us\tlat_p95_us\tlat_mean_us\twall_ms\twire_bytes\tretransmits\tdropped\tresets\taudit_errors"
    )
    .expect("tsv header");
    for row in &rows {
        let s = &row.stats;
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{:.3}\t{}\t{}\t{:.1}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.name,
            nodes,
            s.ops,
            s.acquires,
            s.messages,
            s.messages as f64 / s.acquires.max(1) as f64,
            s.latency.quantile(0.50),
            s.latency.quantile(0.95),
            s.latency.mean(),
            s.wall.as_millis(),
            s.wire_bytes,
            s.retransmits,
            s.dropped,
            s.resets,
            s.audit_errors
        )
        .expect("tsv row");
    }
    println!("wrote {}", path.display());

    let failed: Vec<&str> = rows
        .iter()
        .filter(|r| r.stats.audit_errors > 0 || r.stats.decode_errors > 0)
        .map(|r| r.name.as_str())
        .collect();
    if !failed.is_empty() {
        eprintln!("failed figures: {failed:?}");
        std::process::exit(1);
    }
}
