//! Host fingerprint and the two-thread read-scaling calibration that every
//! result carries, so a `ws_s` scaling figure can be read against what the
//! memory system allows on the host that produced it; and the host-speed
//! reference that the end-to-end timings are corrected by.

use crate::inputs::Rng;
use crate::stats::{mean, median};
use std::sync::Barrier;
use std::time::Instant;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
    pub l2_bytes: usize,
    /// Two-thread ÷ one-thread random-read throughput, each thread over its
    /// own L2-sized array.
    pub read_scaling_private: f64,
    /// The same with both threads reading one shared L2-sized array.
    pub read_scaling_shared: f64,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// L2 size from sysfs (`index2` of cpu0), 1 MiB when unreadable.
fn l2_bytes() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index2/size")
        .ok()
        .and_then(|text| {
            let text = text.trim();
            let (digits, scale) = match text.strip_suffix('K') {
                Some(d) => (d, 1 << 10),
                None => match text.strip_suffix('M') {
                    Some(d) => (d, 1 << 20),
                    None => (text, 1),
                },
            };
            digits.parse::<usize>().ok().map(|n| n * scale)
        })
        .filter(|&bytes| bytes >= 64 << 10)
        .unwrap_or(1 << 20)
}

/// Sum of `reads` independent pseudo-random loads from `array`, whose
/// length is a power of two.
fn random_reads(array: &[u64], reads: u64, seed: u64) -> u64 {
    let mask = array.len() - 1;
    let mut x = seed | 1;
    let mut sum = 0u64;
    for _ in 0..reads {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(array[x as usize & mask]);
    }
    sum
}

/// Reads per second of `arrays.len()` threads, thread `i` reading
/// `arrays[i]` (several threads may share one array).
fn throughput(arrays: &[&[u64]], reads: u64) -> f64 {
    let barrier = Barrier::new(arrays.len());
    let started = std::thread::scope(|scope| {
        let handles: Vec<_> = arrays
            .iter()
            .enumerate()
            .map(|(i, array)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    std::hint::black_box(random_reads(array, reads, 0x9E37 + i as u64));
                    (start, Instant::now())
                })
            })
            .collect();
        let spans: Vec<(Instant, Instant)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let start = spans.iter().map(|s| s.0).min().unwrap();
        let end = spans.iter().map(|s| s.1).max().unwrap();
        end - start
    });
    (reads * arrays.len() as u64) as f64 / started.as_secs_f64()
}

/// `(private, shared)` two-thread read scaling over L2-sized arrays:
/// medians of five interleaved rounds.
fn read_scaling(l2: usize) -> (f64, f64) {
    // The largest power-of-two word count that fits in L2.
    let words = l2 / 8;
    let len = if words.is_power_of_two() {
        words
    } else {
        words.next_power_of_two() / 2
    };
    let fill = |salt: u64| -> Vec<u64> {
        (0..len as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
            .collect()
    };
    let (a, b) = (fill(1), fill(2));
    let reads = 4_000_000;
    let (mut private, mut shared) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let one = throughput(&[&a], reads);
        private.push(throughput(&[&a, &b], reads) / one);
        shared.push(throughput(&[&a, &a], reads) / one);
    }
    (median(&private), median(&shared))
}

/// Hypervisor steal time of all CPUs so far, in seconds: the time the host
/// held this machine's vCPUs back for other tenants (`/proc/stat`, in
/// 1/100 s units).  `None` where it is not reported.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|line| line.starts_with("cpu "))?;
    let steal: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / 100.0)
}

/// Fingerprints the host and runs the read-scaling calibration (~0.5 s).
pub fn fingerprint() -> Host {
    let l2 = l2_bytes();
    let (read_scaling_private, read_scaling_shared) = read_scaling(l2);
    Host {
        nproc: nproc(),
        cpu_model: cpu_model(),
        rustc: std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        git_rev: std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        l2_bytes: l2,
        read_scaling_private,
        read_scaling_shared,
    }
}

impl Host {
    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host nproc={} cpu=\"{}\" l2_bytes={} rustc=\"{}\" git_rev={} \
             read_scaling_private={:.3} read_scaling_shared={:.3}",
            self.nproc,
            self.cpu_model,
            self.l2_bytes,
            self.rustc,
            self.git_rev,
            self.read_scaling_private,
            self.read_scaling_shared
        )
    }
}

/// Nodes of the reference's graph; each draws [`REFERENCE_DEGREE`] random
/// neighbours.
const REFERENCE_NODES: usize = 4096;
const REFERENCE_DEGREE: usize = 10;
/// The search starts at every `REFERENCE_STRIDE`-th node.
const REFERENCE_STRIDE: usize = 32;
/// About the time of one reference search on the host below in a quiet
/// phase (2 vCPUs, Intel Xeon, L2 2 MiB): corrected timings read as wall
/// times measured at that speed.
const REFERENCE_NOMINAL_MS: f64 = 5.0;

/// The host-speed reference.  The host shares its cores and memory system
/// with other tenants, and each vCPU flips between quiet and contended
/// spells of a fraction of a second, in runs of seconds to minutes; in a
/// contended spell enumeration runs 1.5-1.9x slower, and a ten-run set
/// spreads 30-60% when the share of contended time changes across it.  The
/// reference is a depth-first search written here (simple paths of three
/// edges over a seeded random graph), as branchy and pointer-chasing as
/// subgraph enumeration: timed side by side with an RI-DS run for four
/// minutes, it slowed in step with it (while random reads of an L2-sized
/// array moved only 1.35x and an ALU loop 1.08x).  Sampled between a
/// workload's operations, its mean time gives the run's host speed.  The
/// mean, not the median: it grows with the share of contended time the way
/// the timings do (over eight runs of each workload, timings corrected by
/// the mean spread 5-20%, by the median 9-26%, uncorrected 12-39%).  No
/// change to the repository's code can move the reference, since it calls
/// none.
pub struct Reference {
    offsets: Vec<u32>,
    adjacency: Vec<u32>,
    samples_ms: Vec<f64>,
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = Rng::new(0x5EED_5BEE_D000);
        let mut lists = vec![Vec::new(); REFERENCE_NODES];
        for u in 0..REFERENCE_NODES {
            for _ in 0..REFERENCE_DEGREE {
                let v = rng.below(REFERENCE_NODES);
                if v != u {
                    lists[u].push(v as u32);
                    lists[v].push(u as u32);
                }
            }
        }
        let mut offsets = vec![0u32];
        let mut adjacency = Vec::new();
        for list in &lists {
            adjacency.extend(list);
            offsets.push(adjacency.len() as u32);
        }
        Reference {
            offsets,
            adjacency,
            samples_ms: Vec::new(),
        }
    }

    /// Simple paths of three edges from every [`REFERENCE_STRIDE`]-th node.
    fn search(&self) -> u64 {
        fn extend(r: &Reference, path: &mut [u32; 4], len: usize, count: &mut u64) {
            if len == path.len() {
                *count += 1;
                return;
            }
            let u = path[len - 1] as usize;
            let (start, end) = (r.offsets[u] as usize, r.offsets[u + 1] as usize);
            for &v in &r.adjacency[start..end] {
                if !path[..len].contains(&v) {
                    path[len] = v;
                    extend(r, path, len + 1, count);
                }
            }
        }
        let mut count = 0;
        for start in (0..REFERENCE_NODES).step_by(REFERENCE_STRIDE) {
            extend(self, &mut [start as u32, 0, 0, 0], 1, &mut count);
        }
        count
    }

    /// Times one search.
    pub fn sample(&mut self) {
        let started = Instant::now();
        std::hint::black_box(self.search());
        self.samples_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }

    /// `timings` corrected to the nominal host speed, and a note that gives
    /// the reference and their wall-clock values: a wall time times nominal
    /// ÷ the run's mean search time is what it would have read at the
    /// nominal speed.
    pub fn correct(&self, timings: &[(&'static str, f64)]) -> (Vec<(&'static str, f64)>, String) {
        let factor = REFERENCE_NOMINAL_MS / mean(&self.samples_ms);
        let corrected = timings.iter().map(|&(n, v)| (n, v * factor)).collect();
        let wall: Vec<String> = timings.iter().map(|(n, v)| format!("{n} {v:.6}")).collect();
        let note = format!(
            "host speed: {} reference searches, mean {:.4} ms, median {:.4} ms; timings x {factor:.4}; \
             wall-clock {}",
            self.samples_ms.len(),
            mean(&self.samples_ms),
            median(&self.samples_ms),
            wall.join(", ")
        );
        (corrected, note)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_search_repeats() {
        let reference = Reference::new();
        let count = reference.search();
        assert!(count > 0);
        assert_eq!(reference.search(), count);
    }

    #[test]
    fn timings_scale_to_the_nominal_speed() {
        let mut reference = Reference::new();
        // Searches at twice the nominal time on average.
        let nominal = REFERENCE_NOMINAL_MS;
        reference.samples_ms = vec![nominal, 2.0 * nominal, 3.0 * nominal];
        let (corrected, note) = reference.correct(&[("seq_s", 2.0), ("p50_ms", 0.5)]);
        assert_eq!(corrected, vec![("seq_s", 1.0), ("p50_ms", 0.25)]);
        assert!(note.contains("timings x 0.5000"), "{note}");
        assert!(
            note.contains("wall-clock seq_s 2.000000, p50_ms 0.500000"),
            "{note}"
        );
    }
}
