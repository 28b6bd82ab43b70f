//! A small deterministic PRNG for workloads and fault injection.
//!
//! The repository must build and test without network access, so the
//! simulator carries its own generator instead of depending on the
//! `rand` crate. [`SimRng`] is xoshiro256** (Blackman & Vigna) seeded
//! through SplitMix64 — the same construction `rand`'s `SmallRng` family
//! uses — which gives high-quality 64-bit output from a single `u64`
//! seed while staying a handful of lines of code.
//!
//! Determinism is load-bearing: every workload (GUPS, RedisJMP clients,
//! genome read synthesis) and the crash-fault injection plan derive all
//! of their randomness from an explicit seed, so any failing run can be
//! replayed exactly.

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed (SplitMix64 expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)` (Lemire's nearly divisionless
    /// method; `bound` must be nonzero).
    pub fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bounded(0)");
        // Widening multiply maps the 64-bit output into [0, bound);
        // rejecting low halves under `2^64 mod bound` removes the modulo
        // bias. That threshold is below `bound`, so a low half at or
        // above `bound` is accepted without computing it: the division
        // runs only on the rare draw that might be rejected.
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        if (m as u64) < bound {
            let threshold = bound.wrapping_neg() % bound;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value in the half-open range `lo..hi` (`lo < hi`).
    pub fn gen_range(&mut self, range: core::ops::Range<u64>) -> u64 {
        debug_assert!(range.start < range.end, "empty range");
        range.start + self.bounded(range.end - range.start)
    }

    /// A uniform value in the closed range `lo..=hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi, "empty inclusive range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.bounded(hi - lo + 1)
    }

    /// A uniform `usize` index in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.bounded(bound as u64) as usize
    }

    /// `true` with probability `num / den` (exact rational sampling).
    pub fn gen_ratio(&mut self, num: u32, den: u32) -> bool {
        debug_assert!(den > 0 && num <= den, "ratio out of range");
        self.bounded(den as u64) < num as u64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 bits of precision matches f64's mantissa.
        let x = self.next_u64() >> 11;
        (x as f64) < p * (1u64 << 53) as f64
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_range(10..20);
            assert!((10..20).contains(&v));
            let w = rng.gen_range_inclusive(5, 6);
            assert!(w == 5 || w == 6);
            let i = rng.index(3);
            assert!(i < 3);
        }
        assert_eq!(rng.gen_range(9..10), 9, "single-value range");
        assert_eq!(rng.gen_range_inclusive(4, 4), 4);
    }

    #[test]
    fn all_values_of_small_range_occur() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 0..8 reachable: {seen:?}");
    }

    #[test]
    fn ratio_and_bool_probabilities_are_sane() {
        let mut rng = SimRng::seed_from_u64(99);
        let hits = (0..10_000).filter(|_| rng.gen_ratio(1, 4)).count();
        assert!(
            (2_000..3_000).contains(&hits),
            "1/4 ratio gave {hits}/10000"
        );
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.9)).count();
        assert!(hits > 8_500, "p=0.9 gave {hits}/10000");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_ratio(0, 10));
        assert!(rng.gen_ratio(10, 10));
    }

    #[test]
    fn bounded_matches_the_division_formula() {
        // The threshold computed up front on every draw, as `bounded`
        // did before it skipped the division.
        fn reference(rng: &mut SimRng, bound: u64) -> u64 {
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let m = u128::from(rng.next_u64()) * u128::from(bound);
                if (m as u64) >= threshold {
                    return (m >> 64) as u64;
                }
            }
        }
        let bounds = [
            1,
            3,
            4,
            20,
            1 << 15,
            10_000_000_000,
            (1 << 63) + 1,
            u64::MAX,
        ];
        for seed in 0..64 {
            for &bound in &bounds {
                let mut fast = SimRng::seed_from_u64(seed);
                let mut slow = fast.clone();
                for _ in 0..256 {
                    assert_eq!(
                        fast.bounded(bound),
                        reference(&mut slow, bound),
                        "seed {seed} bound {bound}"
                    );
                }
                // Same number of raw draws consumed, rejections included.
                assert_eq!(fast.s, slow.s, "seed {seed} bound {bound}");
            }
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
