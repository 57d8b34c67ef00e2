//! The benchmark's own seeded generator: every input is a pure function
//! of `--seed`, independent of the program's random-number stand-ins.

/// SplitMix64: small, fast, and statistically sound for traffic shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream; distinct `stream` tags give
    /// independent sequences under the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given rate (Poisson
    /// inter-arrival gaps).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// `len` token ids, uniform over the vocabulary.
    pub fn tokens(&mut self, len: usize, vocab: usize) -> Vec<usize> {
        (0..len).map(|_| self.range(0, vocab - 1)).collect()
    }
}

/// The SplitMix64 output finalizer; also a stateless hash for seeded
/// sampling decisions.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 2).next_u64(), Rng::new(7, 1).next_u64());
        assert_ne!(Rng::new(8, 1).next_u64(), Rng::new(7, 1).next_u64());
    }

    #[test]
    fn ranges_and_rates_stay_in_bounds() {
        let mut r = Rng::new(3, 0);
        for _ in 0..10_000 {
            let v = r.range(8, 32);
            assert!((8..=32).contains(&v));
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        let mean = (0..20_000).map(|_| r.exp(100.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.01).abs() < 0.0005, "mean gap {mean}");
    }
}
