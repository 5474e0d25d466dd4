//! Stencil shapes: the paper's two proxies and a generic representation.
//!
//! * 7-point star: arithmetic intensity 8/16 flop/byte,
//! * 125-point (5³) cube with 10 constant coefficients (by symmetry):
//!   139/16 flop/byte.

/// A generic constant-coefficient stencil: `(offset, coefficient)` taps.
#[derive(Clone, Debug, PartialEq)]
pub struct StencilShape {
    taps: Vec<([i8; 3], f64)>,
    radius: usize,
}

impl StencilShape {
    /// Build from explicit taps.
    pub fn new(taps: Vec<([i8; 3], f64)>) -> StencilShape {
        assert!(!taps.is_empty());
        let radius = taps
            .iter()
            .map(|(o, _)| o.iter().map(|v| v.unsigned_abs() as usize).max().unwrap())
            .max()
            .unwrap();
        StencilShape { taps, radius }
    }

    /// The canonical 7-point star with coefficients `c[0]` (center) and
    /// `c[1..7]` (−x, +x, −y, +y, −z, +z).
    pub fn star7(c: [f64; 7]) -> StencilShape {
        StencilShape::new(vec![
            ([0, 0, 0], c[0]),
            ([-1, 0, 0], c[1]),
            ([1, 0, 0], c[2]),
            ([0, -1, 0], c[3]),
            ([0, 1, 0], c[4]),
            ([0, 0, -1], c[5]),
            ([0, 0, 1], c[6]),
        ])
    }

    /// The paper's default 7-point coefficients (a diffusion-like
    /// normalization: stable and non-degenerate).
    pub fn star7_default() -> StencilShape {
        StencilShape::star7([0.4, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    }

    /// The radius-2 star (13-point) stencil common in 4th-order finite
    /// differences: center, ±1 and ±2 along each axis. `c` is indexed
    /// (center, ±1, ±2) with mirror symmetry.
    pub fn star13(c: [f64; 3]) -> StencilShape {
        let mut taps = vec![([0, 0, 0], c[0])];
        for axis in 0..3usize {
            for (dist, coef) in [(1i8, c[1]), (2, c[2])] {
                for sign in [-1i8, 1] {
                    let mut o = [0i8; 3];
                    o[axis] = sign * dist;
                    taps.push((o, coef));
                }
            }
        }
        StencilShape::new(taps)
    }

    /// Default 13-point coefficients (4th-order Laplacian-like weights,
    /// normalized to sum to 1 for boundedness in tests).
    pub fn star13_default() -> StencilShape {
        // Raw 4th-order weights (center -90/12, ±1: 16/12, ±2: -1/12)
        // shifted/scaled into an averaging stencil: w = I + α∇⁴-like.
        let c = [0.4, 0.125, -0.025];
        let total: f64 = c[0] + 6.0 * c[1] + 6.0 * c[2];
        StencilShape::star13([c[0] / total, c[1] / total, c[2] / total])
    }

    /// The 5³ cube (125-point) stencil with 10 constant coefficients by
    /// symmetry class: the coefficient of tap `(i,j,k)` depends only on
    /// the sorted absolute offsets, giving the 10 classes of
    /// `{0,1,2}³/sym`. `c` is indexed by class in lexicographic order of
    /// the sorted triple: (0,0,0), (0,0,1), (0,0,2), (0,1,1), (0,1,2),
    /// (0,2,2), (1,1,1), (1,1,2), (1,2,2), (2,2,2).
    pub fn cube125(c: [f64; 10]) -> StencilShape {
        let mut taps = Vec::with_capacity(125);
        for k in -2i8..=2 {
            for j in -2i8..=2 {
                for i in -2i8..=2 {
                    taps.push(([i, j, k], c[symmetry_class(i, j, k)]));
                }
            }
        }
        StencilShape::new(taps)
    }

    /// Default 125-point coefficients, normalized to sum to 1.
    pub fn cube125_default() -> StencilShape {
        // Class populations: 1, 6, 6, 12, 24, 12, 8, 24, 24, 8.
        let raw = [0.1, 0.05, 0.02, 0.03, 0.012, 0.008, 0.02, 0.006, 0.004, 0.002];
        let pops = [1.0, 6.0, 6.0, 12.0, 24.0, 12.0, 8.0, 24.0, 24.0, 8.0];
        let total: f64 = raw.iter().zip(&pops).map(|(c, p)| c * p).sum();
        let mut c = raw;
        for v in &mut c {
            *v /= total;
        }
        StencilShape::cube125(c)
    }

    /// The taps.
    pub fn taps(&self) -> &[([i8; 3], f64)] {
        &self.taps
    }

    /// Stencil radius (max |offset|).
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Number of taps.
    pub fn points(&self) -> usize {
        self.taps.len()
    }

    /// Flops per output point (one multiply per tap + adds).
    pub fn flops_per_point(&self) -> f64 {
        (2 * self.taps.len() - 1) as f64
    }

    /// Streaming bytes per point (one read + one write of f64, the
    /// paper's AI denominator of 16 bytes).
    pub fn bytes_per_point(&self) -> f64 {
        16.0
    }
}

/// Extract the coefficients of a canonical 7-point star in the order
/// (center, −x, +x, −y, +y, −z, +z), or `None` if `shape` is not one.
/// Kernels use this to select their specialized fast paths.
pub fn star7_coeffs(shape: &StencilShape) -> Option<[f64; 7]> {
    if shape.points() != 7 || shape.radius() != 1 {
        return None;
    }
    let canonical: [[i8; 3]; 7] = [
        [0, 0, 0],
        [-1, 0, 0],
        [1, 0, 0],
        [0, -1, 0],
        [0, 1, 0],
        [0, 0, -1],
        [0, 0, 1],
    ];
    let mut c = [0.0f64; 7];
    for &(o, v) in shape.taps() {
        let i = canonical.iter().position(|k| *k == o)?;
        c[i] = v;
    }
    Some(c)
}

/// Extract the 10 symmetry-class coefficients of a 125-point cube
/// stencil (see [`StencilShape::cube125`] for the class order), or
/// `None` if `shape` is not a full 5³ cube whose coefficients respect
/// the sorted-absolute-offset symmetry. No kernel dispatches on it:
/// [`crate::KernelPlan`] runs all 125 taps in the serial reference's
/// order, so its bits match the reference.
pub fn cube125_coeffs(shape: &StencilShape) -> Option<[f64; 10]> {
    if shape.points() != 125 || shape.radius() != 2 {
        return None;
    }
    let mut c = [f64::NAN; 10];
    let mut seen = [false; 125];
    for &(o, v) in shape.taps() {
        let [i, j, k] = o;
        if i.unsigned_abs() > 2 || j.unsigned_abs() > 2 || k.unsigned_abs() > 2 {
            return None;
        }
        let slot = ((k + 2) as usize * 5 + (j + 2) as usize) * 5 + (i + 2) as usize;
        if seen[slot] {
            return None; // duplicate tap: not a plain cube
        }
        seen[slot] = true;
        let class = symmetry_class(i, j, k);
        if c[class].is_nan() {
            c[class] = v;
        } else if c[class] != v {
            return None; // coefficients break the symmetry
        }
    }
    Some(c)
}

/// Symmetry class (0..10) of a cube tap by sorted absolute offsets.
pub(crate) fn symmetry_class(i: i8, j: i8, k: i8) -> usize {
    let mut a = [i.unsigned_abs(), j.unsigned_abs(), k.unsigned_abs()];
    a.sort_unstable();
    match (a[0], a[1], a[2]) {
        (0, 0, 0) => 0,
        (0, 0, 1) => 1,
        (0, 0, 2) => 2,
        (0, 1, 1) => 3,
        (0, 1, 2) => 4,
        (0, 2, 2) => 5,
        (1, 1, 1) => 6,
        (1, 1, 2) => 7,
        (1, 2, 2) => 8,
        (2, 2, 2) => 9,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star7_shape() {
        let s = StencilShape::star7_default();
        assert_eq!(s.points(), 7);
        assert_eq!(s.radius(), 1);
        assert_eq!(s.flops_per_point(), 13.0);
        let sum: f64 = s.taps().iter().map(|(_, c)| c).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star13_shape() {
        let s = StencilShape::star13_default();
        assert_eq!(s.points(), 13);
        assert_eq!(s.radius(), 2);
        let sum: f64 = s.taps().iter().map(|(_, c)| c).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        // Mirror symmetry per axis.
        let coeff = |o: [i8; 3]| s.taps().iter().find(|(t, _)| *t == o).unwrap().1;
        assert_eq!(coeff([2, 0, 0]), coeff([-2, 0, 0]));
        assert_eq!(coeff([0, 1, 0]), coeff([0, 0, 1]));
    }

    #[test]
    fn cube125_shape() {
        let s = StencilShape::cube125_default();
        assert_eq!(s.points(), 125);
        assert_eq!(s.radius(), 2);
        let sum: f64 = s.taps().iter().map(|(_, c)| c).sum();
        assert!((sum - 1.0).abs() < 1e-12, "sum = {sum}");
    }

    #[test]
    fn cube125_symmetry() {
        let s = StencilShape::cube125_default();
        let coeff = |i: i8, j: i8, k: i8| -> f64 {
            s.taps()
                .iter()
                .find(|(o, _)| *o == [i, j, k])
                .map(|(_, c)| *c)
                .unwrap()
        };
        // Mirror symmetry and axis permutation symmetry.
        assert_eq!(coeff(1, 0, 0), coeff(-1, 0, 0));
        assert_eq!(coeff(1, 0, 0), coeff(0, 1, 0));
        assert_eq!(coeff(2, 1, 0), coeff(0, -1, -2));
        assert_eq!(coeff(1, 1, 1), coeff(-1, 1, -1));
    }

    #[test]
    fn cube125_coeffs_roundtrip() {
        let raw = [0.1, 0.05, 0.02, 0.03, 0.012, 0.008, 0.02, 0.006, 0.004, 0.002];
        let s = StencilShape::cube125(raw);
        assert_eq!(cube125_coeffs(&s), Some(raw));
        assert!(cube125_coeffs(&StencilShape::cube125_default()).is_some());
        // Non-cube shapes are rejected.
        assert_eq!(cube125_coeffs(&StencilShape::star7_default()), None);
        // Symmetry-breaking coefficients are rejected.
        let mut taps = s.taps().to_vec();
        taps[0].1 += 1.0;
        assert_eq!(cube125_coeffs(&StencilShape::new(taps)), None);
    }

    #[test]
    fn symmetry_class_count() {
        let mut seen = [0usize; 10];
        for k in -2i8..=2 {
            for j in -2i8..=2 {
                for i in -2i8..=2 {
                    seen[symmetry_class(i, j, k)] += 1;
                }
            }
        }
        assert_eq!(seen, [1, 6, 6, 12, 24, 12, 8, 24, 24, 8]);
        assert_eq!(seen.iter().sum::<usize>(), 125);
    }
}
