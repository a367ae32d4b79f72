//! Measurement primitives shared by every workload: exact order statistics
//! over raw samples, process and thread CPU time and peak memory from
//! `/proc`, the seeded input generator, and the benchmark-side span timers
//! of a traced run.

use std::time::{Duration, Instant};

/// Raw latency samples; percentiles are exact order statistics, never
/// histogram buckets.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    /// Nearest-rank percentile `q` in `(0, 1]`, and how many samples lie
    /// strictly beyond its rank. `None` when empty.
    pub fn percentile(&mut self, q: f64) -> Option<(f64, usize)> {
        if self.0.is_empty() {
            return None;
        }
        self.0.sort_unstable_by(f64::total_cmp);
        let n = self.0.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some((self.0[rank - 1], n - rank))
    }
}

/// Time of one [`HostSpeed`] calibration pass on the reference host (a
/// quiet 2-vCPU x86-64 VM).
pub const CALIBRATION_REF_S: f64 = 0.75e-3;

/// How fast the host runs right now, from a fixed cache-bound kernel timed
/// next to the work. On a shared host the speed of a core drifts by tens
/// of percent from minute to minute. Paired with each simulation on the
/// same thread, the kernel tracks the simulator's speed within ±2%, so
/// `paper-sp64` reads its compute-bound metrics at the reference speed;
/// the runtime workloads, whose cost is mostly wake-ups and system calls,
/// only report the slowdown.
#[derive(Default)]
pub struct HostSpeed(Vec<f64>);

impl HostSpeed {
    /// Time one calibration pass. The pass allocates its 512 KiB table
    /// afresh, so it pays page faults and zeroing as well as cache misses,
    /// like the simulator's allocation churn.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut table = vec![0u64; 1 << 16];
        let mut rng = Rng::new(7);
        let mut acc = 0u64;
        for _ in 0..200_000 {
            let k = rng.next_u64();
            let slot = (k as usize) & (table.len() - 1);
            table[slot] = table[slot].wrapping_add(k);
            if table[(k >> 20) as usize & (table.len() - 1)] & 1 == 1 {
                acc = acc.wrapping_add(k);
            }
        }
        std::hint::black_box(acc);
        let s = start.elapsed().as_secs_f64();
        self.0.push(s);
        s
    }

    pub fn sample_n(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Median calibration time over the reference time: 1.3 means the host
    /// ran 30% slower than the reference.
    pub fn slowdown(&self) -> f64 {
        if self.0.is_empty() {
            1.0
        } else {
            median(self.0.clone()) / CALIBRATION_REF_S
        }
    }
}

/// Median of a few repeated measurements (set-up times).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Clock ticks per second of `/proc/*/stat` CPU fields (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// `utime + stime` in seconds from a `/proc/.../stat` line. The command
/// name (field 2) may contain spaces, so fields are counted after its
/// closing parenthesis.
fn stat_cpu_s(path: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0.0;
    };
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    // After ")": field 3 (state) is index 0, so utime (14) is index 11.
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// CPU seconds used by the whole process, dead threads included.
fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds used by the calling thread (the load generator).
fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// CPU used by every thread except the caller's, since a [`CpuMark`].
pub struct CpuMark {
    process: f64,
    caller: f64,
}

impl CpuMark {
    pub fn now() -> Self {
        CpuMark {
            process: process_cpu_s(),
            caller: thread_cpu_s(),
        }
    }

    /// Seconds of CPU the other threads used since the mark.
    pub fn others_s(&self) -> f64 {
        let process = process_cpu_s() - self.process;
        let caller = thread_cpu_s() - self.caller;
        (process - caller).max(0.0)
    }
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the seeded generator every workload draws its inputs from.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_0000_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform on `[mean/2, 3·mean/2]`: the workload crate's "randomized
    /// around the mean" think and critical-section times.
    pub fn around(&mut self, mean: Duration) -> Duration {
        let half = mean.as_nanos() as u64 / 2;
        Duration::from_nanos(half + self.below(2 * half + 1))
    }
}

/// A call site the traced run times from the benchmark side.
#[derive(Clone, Copy)]
pub enum Span {
    Submit,
    Flush,
    Recv,
}

/// Benchmark-side span timers: with tracing off every `time` call is the
/// bare closure; with it on, each call's duration is summed per span.
pub struct Spans {
    on: bool,
    totals: [(Duration, u64); 3],
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            totals: [(Duration::ZERO, 0); 3],
        }
    }

    pub fn time<T>(&mut self, span: Span, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let slot = &mut self.totals[span as usize];
        slot.0 += start.elapsed();
        slot.1 += 1;
        out
    }

    /// Mean nanoseconds per call of `span`.
    pub fn mean_ns(&self, span: Span) -> f64 {
        let (total, calls) = self.totals[span as usize];
        if calls == 0 {
            0.0
        } else {
            total.as_nanos() as f64 / calls as f64
        }
    }

    pub fn total(&self, span: Span) -> Duration {
        self.totals[span as usize].0
    }

    pub fn calls(&self, span: Span) -> u64 {
        self.totals[span as usize].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = Samples::default();
        for v in 1..=1000 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(0.5), Some((500.0, 500)));
        assert_eq!(s.percentile(0.99), Some((990.0, 10)));
    }

    #[test]
    fn stat_parses_own_process() {
        // Burn a little CPU so the tick counters are non-zero.
        let mut x = 0u64;
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(process_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
