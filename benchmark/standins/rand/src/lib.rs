//! Stand-in for the `rand` items `layout::optimize` and
//! `mapping::joint` use. `StdRng` here is SplitMix64, not ChaCha12, so
//! seeded streams differ from the published crate's; no benchmark
//! workload reaches either annealer (`mapping: Lex`, fixed
//! `layout::surface3d()`).

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Integer types `gen_range` can draw.
pub trait SampleUniform: Copy {
    fn from_offset(low: Self, offset: u64) -> Self;
    fn span(low: Self, high: Self) -> u64;
}

macro_rules! sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn from_offset(low: $t, offset: u64) -> $t {
                low + offset as $t
            }
            fn span(low: $t, high: $t) -> u64 {
                assert!(low < high, "gen_range needs a non-empty range");
                (high - low) as u64
            }
        }
    )*};
}
sample_uniform!(u8, u16, u32, u64, usize);

pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        let span = T::span(range.start, range.end);
        // Multiply-shift maps 64 random bits onto [0, span) without the
        // low-bit bias of `%`.
        let offset = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        T::from_offset(range.start, offset)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool needs a probability");
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}
impl<R: RngCore> Rng for R {}

pub mod rngs {
    #[derive(Clone, Debug)]
    pub struct StdRng(u64);

    impl crate::SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> StdRng {
            StdRng(seed)
        }
    }

    impl crate::RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

pub mod seq {
    pub trait SliceRandom {
        fn shuffle<R: crate::Rng>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: crate::Rng>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..i + 1));
            }
        }
    }
}
