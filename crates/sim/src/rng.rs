//! Seedable, splittable randomness for reproducible runs.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Mixes a 64-bit value with the splitmix64 finalizer. Used to derive
/// statistically independent sub-seeds from `(seed, stream)` pairs.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random source for one simulation run.
///
/// Every run is seeded with a single `u64`; every node, service or workload
/// generator inside the run derives its own independent stream with
/// [`SimRng::split`], so adding a new consumer of randomness never perturbs
/// the draws seen by existing ones (a classic source of accidental
/// non-reproducibility in simulators).
///
/// # Example
///
/// ```
/// use geonet_sim::SimRng;
/// use rand::Rng;
///
/// let mut a = SimRng::seed(42).split(7);
/// let mut b = SimRng::seed(42).split(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>()); // same (seed, stream) ⇒ same draws
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    base: u64,
    /// Logical stream position: how many words this stream has produced.
    draws: u64,
}

impl SimRng {
    /// Creates the root random source for a run.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(splitmix64(seed)), base: seed, draws: 0 }
    }

    /// Derives an independent stream identified by `stream`.
    ///
    /// Splitting is a pure function of the *original* seed and the stream
    /// id — it does not consume state from `self` — so the set of streams a
    /// simulation uses can grow without reordering anyone's draws. The new
    /// stream's [`SimRng::draw_count`] starts at zero.
    #[must_use]
    pub fn split(&self, stream: u64) -> SimRng {
        let sub = splitmix64(self.base ^ splitmix64(stream.wrapping_add(0xA5A5_A5A5)));
        SimRng { inner: StdRng::seed_from_u64(sub), base: sub, draws: 0 }
    }

    /// The stream position: how many words have been drawn from this
    /// stream so far. A deterministic function of the request sequence
    /// (each `next_u32`/`next_u64` counts one; `fill_bytes` counts one
    /// per started 8-byte word), so two identically-seeded simulations
    /// that made the same requests report the same count — the audit
    /// layer digests this instead of cloning the generator.
    #[must_use]
    pub fn draw_count(&self) -> u64 {
        self.draws
    }

    /// Uniform draw in `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        assert!(low < high, "empty uniform range [{low}, {high})");
        Rng::gen_range(self, low..high)
    }

    /// Uniform integer draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is empty");
        Rng::gen_range(self, 0..n)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            Rng::gen_bool(self, p)
        }
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_is_stateless() {
        let root = SimRng::seed(99);
        let mut s1 = root.split(5);
        // Splitting again after consuming draws from another split must not
        // change the stream.
        let mut burn = root.split(6);
        let _ = burn.next_u64();
        let mut s2 = root.split(5);
        for _ in 0..32 {
            assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }

    #[test]
    fn split_streams_are_distinct() {
        let root = SimRng::seed(7);
        let mut s1 = root.split(1);
        let mut s2 = root.split(2);
        let v1: Vec<u64> = (0..8).map(|_| s1.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| s2.next_u64()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = SimRng::seed(3);
        for _ in 0..1_000 {
            let x = r.uniform(-0.75, 0.75);
            assert!((-0.75..0.75).contains(&x));
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SimRng::seed(4);
        for _ in 0..1_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    #[should_panic(expected = "empty uniform range")]
    fn uniform_rejects_empty_range() {
        let mut r = SimRng::seed(6);
        let _ = r.uniform(1.0, 1.0);
    }

    #[test]
    fn draw_count_starts_at_zero_and_advances() {
        let mut r = SimRng::seed(11);
        assert_eq!(r.draw_count(), 0);
        let _ = r.next_u64();
        assert_eq!(r.draw_count(), 1);
        let _ = r.next_u32();
        assert_eq!(r.draw_count(), 2);
        let mut buf = [0u8; 20];
        r.fill_bytes(&mut buf); // 20 bytes = 3 started 8-byte words
        assert_eq!(r.draw_count(), 5);
        r.fill_bytes(&mut []);
        assert_eq!(r.draw_count(), 5, "empty fill draws nothing");
        let s = r.split(1);
        assert_eq!(s.draw_count(), 0, "fresh streams start at zero");
        assert_eq!(r.draw_count(), 5, "splitting consumes no draws");
    }

    #[test]
    fn draw_count_covers_convenience_draws() {
        let mut r = SimRng::seed(12);
        let _ = r.uniform(0.0, 1.0);
        let after_uniform = r.draw_count();
        assert!(after_uniform > 0, "uniform must advance the stream position");
        let _ = r.below(17);
        assert!(r.draw_count() > after_uniform);
        let before = r.draw_count();
        let _ = r.chance(0.5);
        assert!(r.draw_count() > before);
    }

    #[test]
    fn identically_seeded_kernels_report_identical_draw_counts() {
        // Two kernels driven by the same seed make the same requests in
        // the same order, so the streams' positions must agree at every
        // point — the property the audit layer's RNG digest relies on.
        use crate::{Kernel, SimDuration};
        let run = |seed: u64| {
            let mut kernel: Kernel<u32> = Kernel::with_horizon(crate::SimTime::from_secs(60));
            let mut rng = SimRng::seed(seed).split(3);
            kernel.schedule_at(crate::SimTime::ZERO, 0);
            let mut positions = Vec::new();
            while let Some((_, n)) = kernel.pop() {
                // A beacon-like jittered reschedule plus a workload coin.
                let jitter = rng.uniform(0.0, 0.75);
                if rng.chance(0.9) {
                    kernel.schedule_in(SimDuration::from_secs_f64(1.0 + jitter), n + 1);
                }
                positions.push(rng.draw_count());
            }
            positions
        };
        let a = run(42);
        let b = run(42);
        assert!(!a.is_empty());
        assert_eq!(a, b, "same seed must give the same stream positions");
        assert_ne!(a, run(43), "different seeds diverge");
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::seed(8);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }
}
