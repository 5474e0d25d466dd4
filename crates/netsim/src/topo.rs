//! Cartesian rank topology (MPI_Cart_create equivalent), with an
//! optional rank permutation (MPI_Cart_create's `reorder`, made
//! explicit).
//!
//! A mapping policy (see the `mapping` crate) produces a bijection
//! `cartesian position → physical rank` chosen so that neighboring
//! positions land on the same node of a hierarchical fabric. The
//! permutation is applied *here*, at the topology, because every
//! exchange engine resolves its peers exactly once through
//! [`CartTopo::neighbor`] when a session is bound — remapping the
//! topology therefore remaps phased, overlap and partitioned engines
//! alike without touching any of them. All public methods speak
//! *physical* ranks (the ids rank bodies actually run under); the
//! identity permutation is represented as `None` and costs nothing.

use std::fmt;

/// Structured error for user-reachable topology construction and
/// queries (the panic-free twins of the asserting methods).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopoError {
    /// A grid needs at least one axis.
    EmptyDims,
    /// Axis `axis` has extent zero.
    ZeroExtent {
        /// Offending axis index.
        axis: usize,
    },
    /// A rank id at or beyond the grid size.
    RankOutOfRange {
        /// Offending rank.
        rank: usize,
        /// Grid size.
        size: usize,
    },
    /// A coordinate or offset vector of the wrong arity.
    DimsMismatch {
        /// Vector length supplied.
        got: usize,
        /// Grid dimensionality.
        want: usize,
    },
    /// A coordinate outside its axis extent.
    CoordOutOfRange {
        /// Offending axis.
        axis: usize,
        /// Supplied coordinate.
        coord: usize,
        /// Axis extent.
        extent: usize,
    },
    /// A rank permutation whose length differs from the grid size.
    PermutationLength {
        /// Permutation length supplied.
        got: usize,
        /// Grid size.
        want: usize,
    },
    /// A rank permutation that is not a bijection on `0..size`.
    PermutationNotBijective {
        /// A value that is out of range or repeated.
        value: usize,
    },
}

impl fmt::Display for TopoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoError::EmptyDims => write!(f, "topology needs at least one axis"),
            TopoError::ZeroExtent { axis } => {
                write!(f, "topology axis {axis} has extent 0")
            }
            TopoError::RankOutOfRange { rank, size } => {
                write!(f, "rank {rank} outside topology of {size} ranks")
            }
            TopoError::DimsMismatch { got, want } => {
                write!(f, "expected {want} per-axis entries, got {got}")
            }
            TopoError::CoordOutOfRange { axis, coord, extent } => {
                write!(f, "coordinate {coord} outside axis {axis} of extent {extent}")
            }
            TopoError::PermutationLength { got, want } => {
                write!(f, "rank permutation has {got} entries for {want} ranks")
            }
            TopoError::PermutationNotBijective { value } => {
                write!(f, "rank permutation is not a bijection (at value {value})")
            }
        }
    }
}

impl std::error::Error for TopoError {}

/// The cart↔phys bijection of a remapped topology.
#[derive(Clone, Debug)]
struct Perm {
    /// `to_phys[cartesian rank] = physical rank`.
    to_phys: Vec<usize>,
    /// Inverse: `to_cart[physical rank] = cartesian rank`.
    to_cart: Vec<usize>,
}

/// A periodic or bounded Cartesian process grid.
#[derive(Clone, Debug)]
pub struct CartTopo {
    dims: Vec<usize>,
    periodic: bool,
    perm: Option<Perm>,
}

impl CartTopo {
    /// Grid of `dims` ranks per axis. Panics on an empty or zero-extent
    /// grid; see [`CartTopo::try_new`] for the structured error.
    pub fn new(dims: &[usize], periodic: bool) -> CartTopo {
        CartTopo::try_new(dims, periodic).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`CartTopo::new`].
    pub fn try_new(dims: &[usize], periodic: bool) -> Result<CartTopo, TopoError> {
        if dims.is_empty() {
            return Err(TopoError::EmptyDims);
        }
        if let Some(axis) = dims.iter().position(|&d| d == 0) {
            return Err(TopoError::ZeroExtent { axis });
        }
        Ok(CartTopo { dims: dims.to_vec(), periodic, perm: None })
    }

    /// Factor `n` ranks into a `d`-dimensional grid as evenly as possible
    /// (MPI_Dims_create equivalent; larger factors on later axes so the
    /// unit-stride axis gets the smallest cut).
    pub fn balanced(n: usize, d: usize, periodic: bool) -> CartTopo {
        assert!(n > 0 && d > 0);
        let mut dims = vec![1usize; d];
        let mut rem = n;
        // Repeatedly strip the smallest prime factor onto the currently
        // smallest grid axis.
        while rem > 1 {
            let f = smallest_prime_factor(rem);
            let i = (0..d).min_by_key(|&i| dims[i]).unwrap();
            dims[i] *= f;
            rem /= f;
        }
        dims.sort_unstable();
        CartTopo { dims, periodic, perm: None }
    }

    /// This grid with ranks remapped by `perm`, where
    /// `perm[cartesian rank] = physical rank`. The identity permutation
    /// is normalized back to the unpermuted representation, so a
    /// lexicographic mapping is structurally the original topology.
    pub fn with_permutation(&self, perm: &[usize]) -> Result<CartTopo, TopoError> {
        let n = self.size();
        if perm.len() != n {
            return Err(TopoError::PermutationLength { got: perm.len(), want: n });
        }
        let mut to_cart = vec![usize::MAX; n];
        for (cart, &phys) in perm.iter().enumerate() {
            if phys >= n || to_cart[phys] != usize::MAX {
                return Err(TopoError::PermutationNotBijective { value: phys });
            }
            to_cart[phys] = cart;
        }
        let perm = (!perm.iter().enumerate().all(|(i, &p)| i == p))
            .then(|| Perm { to_phys: perm.to_vec(), to_cart });
        Ok(CartTopo { dims: self.dims.clone(), periodic: self.periodic, perm })
    }

    /// The active cart→phys permutation, if any (`None` = identity).
    pub fn permutation(&self) -> Option<&[usize]> {
        self.perm.as_ref().map(|p| p.to_phys.as_slice())
    }

    /// Whether a non-identity rank permutation is active.
    pub fn is_permuted(&self) -> bool {
        self.perm.is_some()
    }

    /// Ranks per axis.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total ranks.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the grid wraps.
    pub fn periodic(&self) -> bool {
        self.periodic
    }

    /// Cartesian rank occupied by physical rank `phys`.
    #[inline]
    fn cart_of(&self, phys: usize) -> usize {
        match &self.perm {
            Some(p) => p.to_cart[phys],
            None => phys,
        }
    }

    /// Physical rank occupying cartesian rank `cart`.
    #[inline]
    fn phys_of(&self, cart: usize) -> usize {
        match &self.perm {
            Some(p) => p.to_phys[cart],
            None => cart,
        }
    }

    /// Coordinates of a (physical) rank (axis 0 fastest). Panics on an
    /// out-of-range rank; see [`CartTopo::try_coords`].
    pub fn coords(&self, rank: usize) -> Vec<usize> {
        self.try_coords(rank).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`CartTopo::coords`].
    pub fn try_coords(&self, rank: usize) -> Result<Vec<usize>, TopoError> {
        if rank >= self.size() {
            return Err(TopoError::RankOutOfRange { rank, size: self.size() });
        }
        let mut cart = self.cart_of(rank);
        let mut c = Vec::with_capacity(self.dims.len());
        for &d in &self.dims {
            c.push(cart % d);
            cart /= d;
        }
        Ok(c)
    }

    /// (Physical) rank at coordinates. Panics on bad coordinates; see
    /// [`CartTopo::try_rank`].
    pub fn rank(&self, coords: &[usize]) -> usize {
        self.try_rank(coords).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`CartTopo::rank`].
    pub fn try_rank(&self, coords: &[usize]) -> Result<usize, TopoError> {
        if coords.len() != self.dims.len() {
            return Err(TopoError::DimsMismatch { got: coords.len(), want: self.dims.len() });
        }
        let mut r = 0usize;
        for a in (0..self.dims.len()).rev() {
            if coords[a] >= self.dims[a] {
                return Err(TopoError::CoordOutOfRange {
                    axis: a,
                    coord: coords[a],
                    extent: self.dims[a],
                });
            }
            r = r * self.dims[a] + coords[a];
        }
        Ok(self.phys_of(r))
    }

    /// Neighbor of (physical) `rank` offset by per-axis trits; `None`
    /// across a non-periodic boundary. On a periodic axis of extent 1
    /// the neighbor is the rank itself (self-loopback), exactly like
    /// MPI_Cart_shift. Panics on a wrong-arity offset vector; see
    /// [`CartTopo::try_neighbor`].
    pub fn neighbor(&self, rank: usize, trits: &[i8]) -> Option<usize> {
        self.try_neighbor(rank, trits).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`CartTopo::neighbor`]: `Ok(None)` is a non-periodic
    /// boundary, `Err` a malformed query.
    pub fn try_neighbor(&self, rank: usize, trits: &[i8]) -> Result<Option<usize>, TopoError> {
        if trits.len() != self.dims.len() {
            return Err(TopoError::DimsMismatch { got: trits.len(), want: self.dims.len() });
        }
        let mut c = self.try_coords(rank)?;
        for a in 0..c.len() {
            let d = self.dims[a] as isize;
            let mut p = c[a] as isize + trits[a] as isize;
            if p < 0 || p >= d {
                if !self.periodic {
                    return Ok(None);
                }
                p = (p % d + d) % d;
            }
            c[a] = p as usize;
        }
        Ok(Some(self.rank(&c)))
    }
}

fn smallest_prime_factor(n: usize) -> usize {
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut f = 3;
    while f * f <= n {
        if n.is_multiple_of(f) {
            return f;
        }
        f += 2;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let t = CartTopo::new(&[2, 3, 4], true);
        assert_eq!(t.size(), 24);
        for r in 0..24 {
            assert_eq!(t.rank(&t.coords(r)), r);
        }
    }

    #[test]
    fn periodic_wrap() {
        let t = CartTopo::new(&[2, 2, 2], true);
        let r = t.rank(&[0, 0, 0]);
        assert_eq!(t.neighbor(r, &[-1, 0, 0]), Some(t.rank(&[1, 0, 0])));
        assert_eq!(t.neighbor(r, &[-1, -1, -1]), Some(t.rank(&[1, 1, 1])));
    }

    #[test]
    fn nonperiodic_edges() {
        let t = CartTopo::new(&[2, 2], false);
        assert_eq!(t.neighbor(0, &[-1, 0]), None);
        assert_eq!(t.neighbor(0, &[1, 0]), Some(1));
    }

    #[test]
    fn extent_one_axis_loops_to_self() {
        let t = CartTopo::new(&[1, 1, 1], true);
        assert_eq!(t.neighbor(0, &[1, -1, 1]), Some(0));
    }

    #[test]
    fn balanced_factorization() {
        assert_eq!(CartTopo::balanced(8, 3, true).dims(), &[2, 2, 2]);
        assert_eq!(CartTopo::balanced(16, 3, true).dims(), &[2, 2, 4]);
        assert_eq!(CartTopo::balanced(64, 3, true).dims(), &[4, 4, 4]);
        assert_eq!(CartTopo::balanced(1024, 3, true).dims(), &[8, 8, 16]);
        assert_eq!(CartTopo::balanced(6, 3, true).dims(), &[1, 2, 3]);
        assert_eq!(CartTopo::balanced(1, 3, true).size(), 1);
    }

    #[test]
    fn construction_errors_are_structured() {
        assert!(matches!(CartTopo::try_new(&[], true), Err(TopoError::EmptyDims)));
        assert!(matches!(CartTopo::try_new(&[2, 0], true), Err(TopoError::ZeroExtent { axis: 1 })));
        let t = CartTopo::new(&[2, 2], true);
        assert!(matches!(t.try_coords(4), Err(TopoError::RankOutOfRange { rank: 4, size: 4 })));
        assert!(matches!(t.try_rank(&[0]), Err(TopoError::DimsMismatch { got: 1, want: 2 })));
        assert!(matches!(
            t.try_rank(&[0, 5]),
            Err(TopoError::CoordOutOfRange { axis: 1, coord: 5, extent: 2 })
        ));
        assert!(matches!(t.try_neighbor(0, &[1]), Err(TopoError::DimsMismatch { .. })));
        assert_eq!(t.try_neighbor(0, &[1, 0]), Ok(Some(1)));
    }

    #[test]
    fn permutation_relabels_every_query() {
        let t = CartTopo::new(&[2, 2], true);
        // Reverse the ranks: cart r lives on phys 3-r.
        let p = t.with_permutation(&[3, 2, 1, 0]).unwrap();
        assert!(p.is_permuted());
        assert_eq!(p.permutation(), Some(&[3usize, 2, 1, 0][..]));
        for cart in 0..4 {
            let phys = 3 - cart;
            assert_eq!(p.coords(phys), t.coords(cart));
            assert_eq!(p.rank(&t.coords(cart)), phys);
        }
        // Neighbor structure is the relabeled original graph.
        for cart in 0..4 {
            for trits in [[1i8, 0], [0, 1], [1, 1], [-1, 0]] {
                let n = t.neighbor(cart, &trits).unwrap();
                assert_eq!(p.neighbor(3 - cart, &trits), Some(3 - n));
            }
        }
    }

    #[test]
    fn identity_permutation_normalizes_away() {
        let t = CartTopo::new(&[2, 3], false);
        let p = t.with_permutation(&[0, 1, 2, 3, 4, 5]).unwrap();
        assert!(!p.is_permuted());
        assert_eq!(p.permutation(), None);
    }

    #[test]
    fn bad_permutations_are_rejected() {
        let t = CartTopo::new(&[2, 2], true);
        assert!(matches!(
            t.with_permutation(&[0, 1, 2]),
            Err(TopoError::PermutationLength { got: 3, want: 4 })
        ));
        assert!(matches!(
            t.with_permutation(&[0, 1, 2, 2]),
            Err(TopoError::PermutationNotBijective { value: 2 })
        ));
        assert!(matches!(
            t.with_permutation(&[0, 1, 2, 7]),
            Err(TopoError::PermutationNotBijective { value: 7 })
        ));
    }
}
