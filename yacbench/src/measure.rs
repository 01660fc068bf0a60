//! Clocks and statistics: real process and thread CPU time from
//! `/proc`, peak resident memory, medians and percentiles, and a
//! content digest for the output checks.

use std::time::Instant;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

fn clock_ticks_per_s() -> f64 {
    // SAFETY: `sysconf` reads a constant system parameter; it takes an
    // integer by value and touches no memory of ours.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// CPU seconds (user + system) the whole process has used so far,
/// including threads that have already exited, from `/proc/self/stat`.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is unreadable or malformed: the benchmark
/// only runs on Linux and reports no CPU figure it cannot measure.
#[must_use]
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15 overall, so 12 and 13 after the name.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields[11].parse::<u64>().expect("utime is an integer")
        + fields[12].parse::<u64>().expect("stime is an integer");
    ticks as f64 / clock_ticks_per_s()
}

/// Nanoseconds the calling thread has spent on a CPU, from
/// `/proc/thread-self/schedstat`.
///
/// # Panics
///
/// Panics if the schedstat file is unreadable or malformed.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    stat.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU time in ns")
}

/// Peak resident set size (`VmHWM`) in MiB.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let bytes = yac_obs::peak_rss_bytes().expect("/proc/self/status has a VmHWM line");
    bytes as f64 / f64::from(1 << 20)
}

/// Wall and process-CPU time of one call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds, all threads.
    pub cpu_s: f64,
}

/// Runs `f`, returning its result with its wall and process CPU time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Timed) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let r = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (r, Timed { wall_s, cpu_s })
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0–100) of `values` by the nearest-rank rule.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly above the `p`-th percentile of `n` samples under
/// the nearest-rank rule.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// An FNV-1a 64-bit digest, fed field by field.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a float in by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives independent, reproducible inputs from the
/// workload seed. The benchmark keeps its own mixer rather than the
/// program's, so a change to the program's streams cannot change which
/// inputs the benchmark sends.
#[must_use]
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(beyond(200, 95.0), 10);
    }

    #[test]
    fn proc_clocks_move() {
        let c0 = thread_cpu_ns();
        // Spin for longer than a scheduler tick: schedstat's on-CPU time
        // advances at ticks and context switches.
        let t0 = Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(thread_cpu_ns() > c0);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
