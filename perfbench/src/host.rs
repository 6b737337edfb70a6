//! Host-side measurement helpers: peak resident memory, medians, the
//! conversion of measured seconds to reference-host seconds, and a
//! self-removing scratch directory inside the working directory.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Resets the process's peak-RSS high-water mark (`VmHWM`) through
/// `/proc/self/clear_refs`, so the next [`peak_rss_mb`] reading covers
/// only what ran after this call. Returns `false` where the kernel does
/// not offer the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set size in MiB since start or since the
/// last [`reset_peak_rss`], read from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A directory under `.perfbench-tmp/` in the working directory, removed
/// (with its parent, once empty) when dropped — also on unwinding.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a fresh, empty directory named after `tag`, the process
    /// id and a counter.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            PathBuf::from(".perfbench-tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            // Fails harmlessly while another scratch directory is alive.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Seconds the reference kernel takes on the reference host (a 2-vCPU
/// Intel Xeon at 2.1 GHz) at its fastest, when no other tenant slows it:
/// [`ReferenceClock::time`] converts to this speed.
pub const REFERENCE_S: f64 = 0.0215;

/// Runs the reference kernel once and returns the seconds it took.
///
/// The kernel is fixed work that never changes with the program, in two
/// halves of about 10 ms each: a compute-bound xorshift stream folded
/// through a branch the predictor cannot learn, then a cache-resident mix
/// of the campaigns' staples — sort a small batch, count it in a
/// fixed-key hash map, format and hash its lines. Candidates were timed
/// against small cold and warm campaigns on the reference host, quiet and
/// busy; this pairing was the one whose time tracked theirs across both
/// (log-log slope 1.11 and 1.02, correlation 0.83, while the campaigns'
/// times varied twofold). The compute half alone under-reacted when the
/// host was busy, the mix alone over-reacted, and a pointer chase over
/// 8 MB tracked worst.
fn reference_kernel_s() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc: u64 = 0;
    for i in 0..2_000_000u32 {
        let v = next();
        acc = acc.wrapping_add(if v & 1 == 0 {
            v >> 3
        } else {
            v.rotate_left(i & 31)
        });
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..27 {
        let mut batch: Vec<u64> = (0..4096).map(|_| next()).collect();
        batch.sort_unstable();
        // A fixed-key hasher: the default one is seeded per process, which
        // would make the kernel's time differ from one process to the next.
        let mut counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for (i, k) in batch.iter().enumerate() {
            *counts.entry(k % 1024).or_insert(0) += i as u64;
        }
        for k in batch.iter().step_by(2) {
            let line = format!("{k:016x} {}\n", counts.get(&(k % 1024)).unwrap_or(&0));
            for b in line.bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    std::hint::black_box((acc, hash));
    started.elapsed().as_secs_f64()
}

/// Converts measured seconds to reference-host seconds, and keeps every
/// reference kernel time it measured.
///
/// The shared host this benchmark was sized on runs the same work up to
/// twice as slowly when other tenants are busy. Each interval timed
/// through [`ReferenceClock::time`] is bracketed by runs of the reference
/// kernel, which slows down with the host, and its seconds are scaled by
/// [`REFERENCE_S`] over the kernel's mean time around it.
#[derive(Debug)]
pub struct ReferenceClock {
    kernel_s: Vec<f64>,
}

impl ReferenceClock {
    /// A clock with no kernel runs recorded, after one unrecorded run
    /// that warms the allocator.
    pub fn new() -> ReferenceClock {
        reference_kernel_s();
        ReferenceClock {
            kernel_s: Vec::new(),
        }
    }

    /// Runs `f` between two recorded runs of the reference kernel.
    /// Returns its result and the factor that converts seconds measured
    /// inside it to reference-host seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = reference_kernel_s();
        let out = f();
        let after = reference_kernel_s();
        self.kernel_s.extend([before, after]);
        (out, REFERENCE_S * 2.0 / (before + after))
    }

    /// The kernel's recorded times, in seconds.
    pub fn kernel_s(&self) -> &[f64] {
        &self.kernel_s
    }
}

impl Default for ReferenceClock {
    fn default() -> ReferenceClock {
        ReferenceClock::new()
    }
}
