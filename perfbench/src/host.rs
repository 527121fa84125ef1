//! The host under the benchmark: one CPU for the whole process, and a
//! calibration kernel that measures how fast that CPU runs right now.
//!
//! The shared host this benchmark was written on runs the same code in a
//! fast and a slow mode, 1.3–1.7× apart, that last from seconds to minutes,
//! so a mode can cover most of a run and move every median in it. The
//! calibration kernel is the benchmark's own fixed code: hashing, formatting
//! and sorting, then a dense floating-point update. Both are
//! throughput-bound, like the program's layers, and slow down with the
//! host's mode; a dependent integer chain and a pointer chase through 4 MB
//! barely moved (4 % and 7 %) while a serve replay took 50 % longer, so
//! the kernel has neither. It runs between samples, and each sample's host
//! time is rescaled to the speed at which one kernel pass takes
//! [`REFERENCE_S`]; a change to the program moves the sample but not the
//! kernel.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds one calibration pass takes at the reference speed: the median
/// pass on the host the bounds in `BENCHMARK.json` were set on.
pub const REFERENCE_S: f64 = 0.0060;

/// Keys hashed, formatted and sorted per pass.
const HASH_KEYS: usize = 20_000;
/// Rows of the dense floating-point update per pass.
const FLOAT_ROWS: usize = 2_500;

/// Pin this process — and every thread it starts later — to one CPU it may
/// run on, the highest-numbered one (the first CPU usually takes the most
/// interrupts). Returns the CPU, or `None` where pinning is unavailable.
/// Threads of one process spread over the host's two vCPUs measured their
/// cross-CPU wake-ups: one fixed serve replay then took between 19 and
/// 46 ms, and its median moved by 27 % between processes.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        // A glibc `cpu_set_t`: 1024 bits.
        let mut allowed = [0u64; 16];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: `allowed` is a writable buffer of exactly `size` bytes,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..size * 8)
            .rev()
            .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly `size` bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// The calibration kernel and every pass it has timed.
#[derive(Debug, Default)]
pub struct Calibration {
    passes: Vec<f64>,
}

impl Calibration {
    /// A kernel with no passes yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time one pass of the kernel, keep it, and return its seconds.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
        for _ in 0..HASH_KEYS {
            let k = xorshift(&mut s) % (HASH_KEYS as u64 / 2);
            groups.entry(k).or_default().push(k);
        }
        let mut lines: Vec<String> = groups
            .iter()
            .map(|(k, v)| format!("{k} {}", v.len()))
            .collect();
        lines.sort_unstable();
        black_box(lines);
        black_box(dense_update(FLOAT_ROWS));
        let secs = start.elapsed().as_secs_f64();
        self.passes.push(secs);
        secs
    }

    /// Every pass timed so far, in order.
    pub fn passes(&self) -> &[f64] {
        &self.passes
    }
}

/// The factor that rescales host seconds measured between two calibration
/// passes taking `before` and `after` seconds to the reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S / (0.5 * (before + after))
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Row eliminations over a 64 × 64 matrix, the shape of a simplex pivot.
fn dense_update(rows: usize) -> f64 {
    const M: usize = 64;
    let mut a: Vec<f64> = (0..M * M)
        .map(|i| ((i * 7919) % 101) as f64 / 50.0 + 0.1)
        .collect();
    for it in 0..rows {
        let p = it % M;
        let col = (it * 3) % M;
        let pivot: Vec<f64> = a[p * M..(p + 1) * M].to_vec();
        for r in (0..M).filter(|&r| r != p) {
            let f = a[r * M + col] / (pivot[col] + 1.0) * 1e-3;
            for (x, y) in a[r * M..(r + 1) * M].iter_mut().zip(&pivot) {
                *x -= f * y;
            }
        }
    }
    a.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_timed_and_kept() {
        let mut cal = Calibration::new();
        let t = cal.pass();
        assert!(t > 0.0);
        assert_eq!(cal.passes(), &[t]);
    }

    #[test]
    fn scale_is_one_at_the_reference_speed() {
        assert!((scale(REFERENCE_S, REFERENCE_S) - 1.0).abs() < 1e-12);
        assert!((scale(2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.5).abs() < 1e-12);
    }
}
