//! A reference kernel that measures how fast the host is *right now*.
//!
//! The hosts this benchmark runs on are small virtual machines whose
//! memory system is shared with neighbours: the same binary on the same
//! inputs runs 1.3–2× slower for seconds or minutes at a time, while a
//! pure ALU loop does not move at all (see `README.md`, "Host noise", for
//! the measurements). A raw time therefore says as much about the
//! neighbours as about the code, and no regression bound below that swing
//! can hold.
//!
//! So every run interleaves its measurements with samples of this kernel —
//! a fixed amount of the kind of work the maintenance engine does
//! (hash-grouped aggregation over a table several times the private cache,
//! with small heap rows allocated and freed) that depends on nothing in
//! the measured crates — and reports each time scaled to the speed the
//! kernel ran at around it: `time × NOMINAL_NS ÷ kernel time`. A change to
//! the measured code moves the numerator only; a slow host moves both.
//! Counts, bytes and the traced run's per-layer times are not scaled.

use std::collections::HashMap;
use std::time::Instant;

/// What one sample takes on the reference host when it is quiet. Times are
/// reported as if the host always ran at this speed.
pub const NOMINAL_NS: f64 = 210_000.0;

/// Operations per sample: about 0.2 ms, so that a sample per ~10 ms of
/// measured work costs about 2 % of the run.
const OPS: usize = 600;

/// Distinct groups: (600 days × 500 products) × ~40 B ≈ 3× a 4 MiB L2.
const DAYS: u64 = 600;
const PRODUCTS: u64 = 500;

/// Live heap rows the kernel keeps replacing.
const ROWS: usize = 1 << 16;

pub struct HostSpeed {
    groups: HashMap<(i64, i64), [f64; 2]>,
    rows: Vec<Vec<i64>>,
    state: u64,
}

impl HostSpeed {
    pub fn new() -> Self {
        let mut groups = HashMap::with_capacity((DAYS * PRODUCTS) as usize);
        for day in 0..DAYS as i64 {
            for product in 0..PRODUCTS as i64 {
                groups.insert((day, product), [0.0; 2]);
            }
        }
        HostSpeed {
            groups,
            rows: (0..ROWS).map(|i| vec![i as i64; 3]).collect(),
            state: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Runs the fixed work once; nanoseconds it took.
    pub fn sample(&mut self) -> f64 {
        let started = Instant::now();
        for _ in 0..OPS {
            // xorshift64: the kernel's inputs are the same in every run.
            self.state ^= self.state << 13;
            self.state ^= self.state >> 7;
            self.state ^= self.state << 17;
            let r = self.state;
            let key = ((r % DAYS) as i64, ((r >> 20) % PRODUCTS) as i64);
            let group = self.groups.get_mut(&key).expect("every key is preloaded");
            group[0] += (r >> 56) as f64 * 0.25;
            group[1] += 1.0;
            let slot = (r >> 32) as usize % ROWS;
            self.rows[slot] = vec![key.0, key.1, (r & 0xff) as i64];
        }
        started.elapsed().as_nanos() as f64
    }

    /// The median of `n` back-to-back samples.
    pub fn probe(&mut self, n: usize) -> f64 {
        let samples: Vec<f64> = (0..n).map(|_| self.sample()).collect();
        crate::stats::median(&samples)
    }
}

/// `raw` (any unit of time), as it would read had the host run the kernel
/// in [`NOMINAL_NS`] instead of `kernel_ns`.
pub fn at_nominal_speed(raw: f64, kernel_ns: f64) -> f64 {
    raw * NOMINAL_NS / kernel_ns
}
