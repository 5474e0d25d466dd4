//! The migratable proxy workload: a global periodic grid of bricks with
//! a deterministic 7-point relaxation and a *modeled* per-brick compute
//! cost that can be skewed onto a hotspot region.
//!
//! Two properties make it the right substrate for exercising dynamic
//! ownership:
//!
//! * **Owner-independence** — every brick's update reads only its own
//!   cells and one face value per neighbor, combined in a fixed order,
//!   so the global state after `k` steps is bit-identical no matter
//!   which rank computed which brick (the headline invariant: a
//!   migrated run must converge bit-identically to the static run).
//! * **Modeled cost** — the balancer's load signal comes from
//!   [`GridCfg::cost`], charged through the telemetry clock rather than
//!   measured wall time, so migration decisions (and therefore the
//!   whole ownership trajectory) are deterministic across backends,
//!   engines, and chaos seeds.

/// The global brick grid: `dims` bricks per axis (periodic), `cells`
/// elements per brick, and a multiplicative `skew` applied to the
/// hotspot slab (bricks with `z < dims[2] / 4`, at least one plane).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridCfg {
    /// Bricks per axis; brick ids are `x + dims[0]*(y + dims[1]*z)`.
    pub dims: [usize; 3],
    /// `f64` elements per brick.
    pub cells: usize,
    /// Cost multiplier for hotspot bricks (`1.0` = uniform load).
    pub skew: f64,
}

/// Modeled compute seconds per cell per step (unit weight). The value
/// only sets the scale of the virtual clock; ratios are what matter.
pub const COST_PER_CELL: f64 = 40e-9;

impl GridCfg {
    /// A uniform grid (no hotspot).
    pub fn uniform(dims: [usize; 3], cells: usize) -> GridCfg {
        GridCfg { dims, cells, skew: 1.0 }
    }

    /// Total bricks in the grid.
    pub fn nbricks(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Brick id at grid coordinate.
    pub fn id(&self, c: [usize; 3]) -> u32 {
        (c[0] + self.dims[0] * (c[1] + self.dims[1] * c[2])) as u32
    }

    /// Grid coordinate of brick `b`.
    pub fn coords(&self, b: u32) -> [usize; 3] {
        let b = b as usize;
        [b % self.dims[0], (b / self.dims[0]) % self.dims[1], b / (self.dims[0] * self.dims[1])]
    }

    /// Periodic face neighbor of `b`; faces are ordered
    /// `[-x, +x, -y, +y, -z, +z]` and the stencil folds them in exactly
    /// this order (part of the bit-identity contract).
    pub fn neighbor(&self, b: u32, face: usize) -> u32 {
        let mut c = self.coords(b);
        let axis = face / 2;
        let d = self.dims[axis];
        c[axis] = if face.is_multiple_of(2) { (c[axis] + d - 1) % d } else { (c[axis] + 1) % d };
        self.id(c)
    }

    /// Whether `b` lies in the skewed hotspot slab.
    pub fn hot(&self, b: u32) -> bool {
        self.coords(b)[2] < (self.dims[2] / 4).max(1)
    }

    /// Cost weight of brick `b` (`skew` inside the hotspot, 1 outside).
    pub fn weight(&self, b: u32) -> f64 {
        if self.hot(b) {
            self.skew
        } else {
            1.0
        }
    }

    /// Modeled compute seconds one step of brick `b` charges.
    pub fn cost(&self, b: u32) -> f64 {
        self.weight(b) * self.cells as f64 * COST_PER_CELL
    }

    /// Modeled compute seconds one step of the whole grid charges —
    /// the denominator of the imbalance metric (`max rank load /
    /// mean rank load`), computable locally because the cost model is
    /// closed-form.
    pub fn total_cost(&self) -> f64 {
        (0..self.nbricks() as u32).map(|b| self.cost(b)).sum()
    }
}

/// Deterministic initial value of cell `j` of brick `b` (a splitmix-ish
/// hash mapped into `[0, 1)`), so every rank can materialize any brick
/// it is assigned without communication.
pub fn init_cell(b: u32, j: usize) -> f64 {
    let mut x = (u64::from(b) << 32) ^ j as u64 ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// One relaxation step of brick `b`:
/// `out[j] = 0.5·cur[j] + (1/12)·Σ_f faces[f][j]`, faces folded in the
/// fixed `[-x, +x, -y, +y, -z, +z]` order. Pure and order-fixed — the
/// bit-identity anchor.
pub fn relax(cur: &[f64], faces: [&[f64]; 6], out: &mut [f64]) {
    const W: f64 = 1.0 / 12.0;
    for j in 0..out.len() {
        let mut acc = 0.5 * cur[j];
        for f in faces {
            acc += W * f[j];
        }
        out[j] = acc;
    }
}

/// Per-brick checksum contribution: the plain index-order cell sum
/// (owner-independent by construction).
pub fn brick_sum(cells: &[f64]) -> f64 {
    cells.iter().sum()
}

/// Fold gathered `(brick, sum)` pairs into the run checksum in global
/// brick-id order, so the fold sequence — and therefore the bits — is
/// independent of which rank owned what.
pub fn fold_checksum(mut sums: Vec<(u32, f64)>) -> f64 {
    sums.sort_by_key(|&(b, _)| b);
    sums.iter().fold(0.0, |acc, &(_, s)| acc + s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_are_periodic_and_involutive() {
        let g = GridCfg::uniform([4, 3, 2], 8);
        for b in 0..g.nbricks() as u32 {
            for axis in 0..3 {
                let minus = g.neighbor(b, 2 * axis);
                let plus = g.neighbor(b, 2 * axis + 1);
                assert_eq!(g.neighbor(minus, 2 * axis + 1), b);
                assert_eq!(g.neighbor(plus, 2 * axis), b);
            }
        }
        // Wraparound on the short axis: -z of a z=0 brick lands on z=1.
        assert_eq!(g.coords(g.neighbor(g.id([0, 0, 0]), 4))[2], 1);
    }

    #[test]
    fn skew_concentrates_cost_in_the_hotspot_slab() {
        let g = GridCfg { dims: [4, 4, 8], cells: 10, skew: 8.0 };
        let hot: Vec<u32> = (0..g.nbricks() as u32).filter(|&b| g.hot(b)).collect();
        assert_eq!(hot.len(), 4 * 4 * 2, "z < 8/4 = 2 planes are hot");
        for &b in &hot {
            assert_eq!(g.cost(b), 8.0 * 10.0 * COST_PER_CELL);
        }
        let total: f64 = (0..g.nbricks() as u32).map(|b| g.cost(b)).sum();
        assert!((total - g.total_cost()).abs() < 1e-15);
    }

    #[test]
    fn relax_is_pure_and_order_fixed() {
        let g = GridCfg::uniform([3, 3, 3], 5);
        let b = g.id([1, 1, 1]);
        let init_brick = |b: u32| -> Vec<f64> { (0..g.cells).map(|j| init_cell(b, j)).collect() };
        let cur = init_brick(b);
        let nbs: Vec<Vec<f64>> = (0..6).map(|f| init_brick(g.neighbor(b, f))).collect();
        let faces: [&[f64]; 6] = std::array::from_fn(|f| nbs[f].as_slice());
        let mut out1 = vec![0.0; g.cells];
        let mut out2 = vec![0.0; g.cells];
        relax(&cur, faces, &mut out1);
        relax(&cur, faces, &mut out2);
        assert_eq!(out1, out2);
        assert!(out1.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn checksum_fold_is_ownership_independent() {
        let pairs = vec![(3u32, 0.1), (0, 0.7), (2, 0.2)];
        let mut shuffled = pairs.clone();
        shuffled.swap(0, 2);
        assert_eq!(fold_checksum(pairs).to_bits(), fold_checksum(shuffled).to_bits());
    }
}
