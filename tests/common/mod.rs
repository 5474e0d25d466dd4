//! Seeded case generator for the property suites (`tests/proptest_*.rs`).
//!
//! `cases("property", n, |rng| …)` runs the body on `n` independent
//! `StdRng` streams whose seeds derive from the property name and the
//! case index, so a suite draws the same cases on every run and two
//! properties never share a stream. When a body panics, the panic is
//! re-raised as `property <name> failed at case seed 0x…: <message>`;
//! `case(0x…, body)` replays exactly that case.
#![allow(dead_code, unused_imports)] // each suite uses its own subset

pub use rand::rngs::StdRng;
pub use rand::seq::SliceRandom;
pub use rand::{Rng, RngCore, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// FNV-1a over the property name, xored with the case index, then
/// scrambled by one draw — so neighbouring cases do not start from
/// neighbouring generator states (SplitMix64 streams of adjacent seeds
/// overlap) and distinct names give unrelated seeds.
pub fn case_seed(name: &str, case: u64) -> u64 {
    let h = name
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3));
    StdRng::seed_from_u64(h ^ case).next_u64()
}

/// Run `body` on the stream of one seed — the one-line repro of a
/// failure `cases` reported.
pub fn case(seed: u64, body: impl FnOnce(&mut StdRng)) {
    body(&mut StdRng::seed_from_u64(seed));
}

/// Run `body` on `n` seeded cases of the property `name`.
pub fn cases(name: &str, n: u64, body: impl Fn(&mut StdRng)) {
    for seed in (0..n).map(|i| case_seed(name, i)) {
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| case(seed, &body))) {
            let msg = p.downcast_ref::<String>().map(String::as_str);
            let msg = msg.or(p.downcast_ref::<&str>().copied()).unwrap_or("<non-string panic>");
            panic!("property {name} failed at case seed {seed:#018x}: {msg}");
        }
    }
}

/// One element of `xs`, uniformly.
pub fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())].clone()
}

/// Uniform integer in `lo..=hi` (the stand-in `gen_range` is unsigned
/// and half-open).
pub fn int_in(rng: &mut StdRng, lo: i64, hi: i64) -> i64 {
    lo + rng.gen_range(0..(hi - lo + 1) as u64) as i64
}

/// Uniform `f64` in `[lo, hi)` from the top 53 bits of one draw.
pub fn f64_in(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
}
