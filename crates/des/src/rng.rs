//! Deterministic random-number generation.
//!
//! Every stochastic component of the simulation draws from its own
//! [`DetRng`] stream, derived from the experiment seed and a textual label
//! (e.g. `"node0/nic/jitter"`). Identical seeds therefore produce
//! byte-identical experiment output regardless of crate versions or
//! platform — which is why we implement xoshiro256++ here rather than rely
//! on an external generator whose stream may change between releases.

/// SplitMix64 step, used for seeding and label hashing.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256++ generator with a small distribution toolkit.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
    /// Cached second output of the Box-Muller transform.
    gauss_spare: Option<f64>,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s, gauss_spare: None }
    }

    /// Derive an independent child stream from a textual label.
    ///
    /// The derivation hashes the label into the parent's seed space without
    /// consuming any numbers from the parent stream, so adding a new
    /// component does not perturb existing streams.
    pub fn derive(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.s[0];
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^= self.s[2].rotate_left(17);
        DetRng::new(h)
    }

    /// Next raw 64-bit value (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high-quality bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Standard normal draw (Box-Muller with spare caching).
    pub(crate) fn gauss(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Rejection for u0 == 0 keeps ln() finite.
        let mut u0 = self.f64();
        while u0 <= f64::EPSILON {
            u0 = self.f64();
        }
        let u1 = self.f64();
        let r = (-2.0 * u0.ln()).sqrt();
        let theta = 2.0 * core::f64::consts::PI * u1;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.gauss()
    }

    /// Log-normal multiplicative jitter factor with multiplicative
    /// standard deviation `sigma` (e.g. 0.004 for ±0.4 % run-to-run
    /// variation). Always strictly positive.
    #[inline]
    pub fn jitter(&mut self, sigma: f64) -> f64 {
        (self.gauss() * sigma).exp()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_stable_and_label_sensitive() {
        let root = DetRng::new(7);
        let mut a1 = root.derive("nic0");
        let mut a2 = root.derive("nic0");
        let mut b = root.derive("nic1");
        let xs: Vec<u64> = (0..16).map(|_| a1.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| a2.next_u64()).collect();
        assert_eq!(xs, ys, "same label must give the same stream");
        assert!((0..16).any(|i| xs[i] != b.next_u64()));
    }

    #[test]
    fn derive_does_not_consume_parent() {
        let mut root1 = DetRng::new(9);
        let mut root2 = DetRng::new(9);
        let _child = root1.derive("x");
        assert_eq!(root1.next_u64(), root2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = DetRng::new(4);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let x = r.below(7);
            assert!(x < 7);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = DetRng::new(5);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let x = r.range(10, 12);
            assert!((10..=12).contains(&x));
            lo_seen |= x == 10;
            hi_seen |= x == 12;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gauss_moments_are_plausible() {
        let mut r = DetRng::new(6);
        let n = 50_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = r.gauss();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn jitter_is_positive_and_centred() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let j = r.jitter(0.01);
            assert!(j > 0.0);
            sum += j;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }
}
