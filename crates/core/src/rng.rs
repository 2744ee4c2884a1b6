//! A small deterministic PRNG (splitmix64) so simulations are exactly
//! reproducible from a single `u64` seed, with no external dependencies.
//!
//! Splitmix64 passes the statistical tests that matter for simulation work,
//! is a single multiply-xor-shift pipeline, and — unlike lagged generators —
//! has no bad seeds (every seed, including 0, produces a full-period
//! sequence).

/// Deterministic 64-bit PRNG. Cloning yields an identical stream;
/// [`Rng::stream`] derives independent, reproducible ones.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

pub(crate) const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

// Every stream coordinate `b` of `Rng::stream(seed, a, b)` in use: node
// ids (`< 2^32`), two blocks of `MATCH_REGIONS` region streams above them,
// and fixed streams below the retired `u64::MAX`. A unit test holds them
// apart.

/// Sharded matcher region `r` draws from `MATCH_REGION_STREAM_BASE + r`.
pub const MATCH_REGION_STREAM_BASE: u64 = 1 << 32;
/// Sliced-engine region `r` draws from `SLICE_REGION_STREAM_BASE + r`.
pub const SLICE_REGION_STREAM_BASE: u64 = 2 << 32;
/// The sharded matcher's serial boundary sweep.
pub const BOUNDARY_STREAM: u64 = u64::MAX - 1;
/// The sliced engine's serial boundary sweep of a pass.
pub const SWEEP_STREAM: u64 = u64::MAX - 2;
/// The sliced engine's start-of-slice mutation drain.
pub const MUTATE_STREAM: u64 = u64::MAX - 3;
/// The membership overlay's tick.
pub const MEMBERSHIP_STREAM: u64 = u64::MAX - 4;

/// The splitmix64 finalizer: a bijective avalanche over `u64`. Shared
/// with the message-row digests and tags so the crate has exactly one
/// copy of these constants.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Derive the independent stream at coordinates `(a, b)` of `seed` —
    /// e.g. `(round, node)` for the sharded round loop. It is
    /// *stateless*: the stream is a pure function of the three values, so
    /// any worker on any thread derives the identical generator for a
    /// given node without sequencing through a shared RNG. Nearby coordinates are decorrelated by two
    /// rounds of the splitmix64 finalizer.
    pub fn stream(seed: u64, a: u64, b: u64) -> Rng {
        let s = mix(seed ^ mix(a.wrapping_mul(GOLDEN_GAMMA)));
        Rng::new(mix(s ^ b.wrapping_mul(GOLDEN_GAMMA)))
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound`. `bound` must be non-zero.
    ///
    /// Uses rejection sampling (Lemire-style threshold) so the result is
    /// exactly uniform rather than modulo-biased.
    pub fn gen_range(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "gen_range bound must be non-zero");
        let bound = bound as u64;
        loop {
            let r = self.next_u64();
            // Low 64 bits of r * bound are uniform once we reject the
            // truncated region below `threshold = 2^64 mod bound`.
            let (hi, lo) = {
                let wide = (r as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            // The threshold is below `bound`, so `lo >= bound` accepts
            // without paying the 64-bit division that computes it.
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi as usize;
            }
        }
    }

    /// Take `ahead`'s state if `take`, else keep this one's — by mask, not
    /// branch. With `ahead` a clone that ran some draws, a caller draws
    /// unconditionally yet leaves the stream where a conditional draw would.
    #[inline]
    pub fn adopt_if(&mut self, ahead: &Rng, take: bool) {
        let mask = (take as u64).wrapping_neg();
        self.state = ahead.state & mask | self.state & !mask;
    }

    /// Fair coin flip.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice, deterministic given the RNG state.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_coordinates_are_disjoint() {
        let fixed = [
            BOUNDARY_STREAM,
            SWEEP_STREAM,
            MUTATE_STREAM,
            MEMBERSHIP_STREAM,
        ];
        let bases = [MATCH_REGION_STREAM_BASE, SLICE_REGION_STREAM_BASE];
        let all: Vec<u64> = fixed.iter().chain(&bases).copied().collect();
        for (i, a) in all.iter().enumerate() {
            assert!(!all[i + 1..].contains(a), "coordinate {a:#x} is used twice");
        }
        let regions = crate::MATCH_REGIONS as u64;
        let lowest_fixed = *fixed.iter().min().unwrap();
        for base in bases {
            // Above every node id, and below every fixed coordinate.
            assert!(base > u64::from(u32::MAX), "{base:#x} reaches node ids");
            assert!(
                base + regions <= lowest_fixed,
                "{base:#x} reaches {lowest_fixed:#x}"
            );
        }
        let (a, b) = (MATCH_REGION_STREAM_BASE, SLICE_REGION_STREAM_BASE);
        assert!(
            a + regions <= b || b + regions <= a,
            "the region ranges overlap"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut rng = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values 0..10 should appear");
    }

    #[test]
    fn lazy_threshold_draws_match_the_eager_form() {
        // The eager form computes the rejection threshold up front on
        // every call; `gen_range` must accept the same draws and consume
        // the same number of raw outputs, so every stream is unchanged.
        fn eager(rng: &mut Rng, bound: u64) -> u64 {
            let threshold = bound.wrapping_neg() % bound;
            loop {
                let wide = (rng.next_u64() as u128) * (bound as u128);
                if wide as u64 >= threshold {
                    return (wide >> 64) as u64;
                }
            }
        }
        for bound in [1, 2, 3, 7, 64, 1000, (1 << 32) + 1, usize::MAX] {
            let mut lazy = Rng::new(0x5eed ^ bound as u64);
            let mut reference = lazy.clone();
            for _ in 0..100_000 {
                assert_eq!(
                    lazy.gen_range(bound) as u64,
                    eager(&mut reference, bound as u64),
                    "bound {bound}"
                );
            }
            assert_eq!(lazy.next_u64(), reference.next_u64(), "bound {bound}");
        }
    }

    #[test]
    fn adopting_a_masked_draw_equals_drawing_in_place() {
        // `2^63 + 1` rejects almost half its raw draws, so the loop on the
        // copy really repeats; the adoption must still land the stream
        // exactly where the conditional in-place draw leaves it.
        let mut repeated = false;
        for bound in [3, (1usize << 63) + 1, usize::MAX] {
            for seed in 0..2_000u64 {
                for take in [false, true] {
                    let mut in_place = Rng::new(seed ^ bound as u64);
                    let mut masked = in_place.clone();
                    let want = take.then(|| in_place.gen_range(bound));
                    let mut ahead = masked.clone();
                    let got = ahead.gen_range(bound);
                    let mut one_draw = masked.clone();
                    one_draw.next_u64();
                    repeated |= ahead.state != one_draw.state;
                    masked.adopt_if(&ahead, take);
                    if take {
                        assert_eq!(Some(got), want, "bound {bound} seed {seed}");
                    }
                    assert_eq!(masked.next_u64(), in_place.next_u64(), "bound {bound}");
                }
            }
        }
        assert!(repeated, "no bound made the rejection loop repeat");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::new(9);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn streams_are_pure_functions_of_their_coordinates() {
        let mut a = Rng::stream(42, 7, 3);
        let mut b = Rng::stream(42, 7, 3);
        for _ in 0..20 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ_across_coordinates() {
        // Adjacent (round, node) coordinates — the worst case for a weak
        // mixer — must land in distinct streams.
        let mut seen = std::collections::HashSet::new();
        for round in 0..8u64 {
            for node in 0..64u64 {
                let mut rng = Rng::stream(9, round, node);
                assert!(seen.insert(rng.next_u64()), "stream collision");
            }
        }
        // And the seed matters too.
        let mut x = Rng::stream(1, 5, 5);
        let mut y = Rng::stream(2, 5, 5);
        assert_ne!(x.next_u64(), y.next_u64());
    }
}
