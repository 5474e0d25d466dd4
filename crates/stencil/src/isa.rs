//! Instruction-set levels the planned kernels are instantiated for.
//!
//! The workspace builds for baseline x86-64 (SSE2), so a kernel only
//! sees wider registers inside a `#[target_feature]` function. Each
//! planned kernel is written once, stamped per level by the `per_isa!`
//! macro and bound to a level when its plan is built — [`Isa::detect`]
//! unless a test or benchmark pins a lower one. No level enables `fma`
//! by name and Rust never contracts `a * b + c` on its own, so multiply
//! and add stay separate instructions and every level produces the same
//! bits.

/// One instruction-set level, ordered by register width. Levels are
/// cumulative: a CPU at one level runs every lower one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// What the build targets (SSE2 on x86-64); the only level on other
    /// architectures.
    Baseline,
    /// 256-bit `ymm` registers (`avx2`).
    Avx2,
    /// 512-bit `zmm` registers (`avx512f` + `avx512vl`): one 8-double
    /// brick row is one register.
    Avx512,
}

impl Isa {
    /// Every level, ascending.
    pub const ALL: [Isa; 3] = [Isa::Baseline, Isa::Avx2, Isa::Avx512];

    /// The highest level this CPU runs (a cached CPUID read).
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let wide = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl");
            return if wide { Isa::Avx512 } else { Isa::Avx2 };
        }
        Isa::Baseline
    }

    /// The levels this CPU runs, ascending (`Baseline` always first).
    pub fn available() -> impl Iterator<Item = Isa> {
        let top = Isa::detect();
        Isa::ALL.into_iter().filter(move |&l| l <= top)
    }

    /// Lower-case name for reports (`"avx512"`).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Prove `self` runs on this CPU. Panics otherwise: a safe API must
    /// not be able to execute AVX-512 code on a CPU without it.
    pub(crate) fn bind(self) -> BoundIsa {
        let top = Isa::detect();
        assert!(
            self <= top,
            "ISA level {} is above the detected level {}",
            self.name(),
            top.name()
        );
        BoundIsa(self)
    }
}

/// A level checked against [`Isa::detect`]: what plans store and what
/// the [`per_isa!`] dispatchers take. Only [`Isa::bind`] constructs
/// one, which is the dispatchers' safety contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BoundIsa(Isa);

impl BoundIsa {
    pub(crate) fn level(self) -> Isa {
        self.0
    }
}

/// Stamp one kernel per ISA level. `fn name(args) { body }` becomes
/// `fn name(isa: BoundIsa, args)`, whose body is compiled three times —
/// as written, under `avx2`, and under `avx512f,avx512vl` — and
/// dispatched on `isa`. A stamped kernel handles one run per call: the
/// caller deals runs of bricks or planes through `pool::for_runs` and
/// calls the kernel once per run, and the loop over the run's items
/// belongs in `body`. A closure inherits target features only from the
/// function it is written in, so a per-brick closure passed in from
/// outside runs as baseline code (a prototype that did so ran the
/// `k1-large` step 12–35 % slower). Per-brick helpers called from
/// `body` must be `#[inline(always)]` for the same reason.
macro_rules! per_isa {
    (
        $(#[$meta:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block
    ) => {
        $(#[$meta])*
        // Off x86-64 the wrappers carry no target feature.
        #[allow(unused_unsafe)]
        $vis fn $name(isa: $crate::isa::BoundIsa, $($arg: $ty),*) {
            fn baseline($($arg: $ty),*) $body
            #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
            fn avx2($($arg: $ty),*) $body
            #[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx512f,avx512vl"))]
            fn avx512($($arg: $ty),*) $body
            // SAFETY: a `BoundIsa` is only built by `Isa::bind`, which
            // asserts level <= `Isa::detect()`, and `detect` reports a
            // level only if the CPU has its features and those of every
            // lower level — so it has the ones the wrapper called here
            // was compiled with.
            unsafe {
                match isa.level() {
                    $crate::isa::Isa::Baseline => baseline($($arg),*),
                    $crate::isa::Isa::Avx2 => avx2($($arg),*),
                    $crate::isa::Isa::Avx512 => avx512($($arg),*),
                }
            }
        }
    };
}
pub(crate) use per_isa;

#[cfg(test)]
mod tests {
    use super::*;

    /// No silent fallback: the detected level follows the CPU's feature
    /// bits.
    #[test]
    fn detect_follows_cpu_features() {
        let top = Isa::detect();
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert!(top >= Isa::Avx2);
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
                assert_eq!(top, Isa::Avx512);
            }
        }
        let levels: Vec<Isa> = Isa::available().collect();
        assert_eq!(levels.first(), Some(&Isa::Baseline));
        assert_eq!(levels.last(), Some(&top));
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }
}
