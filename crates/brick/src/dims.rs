//! Brick extents and index arithmetic.

/// Extents of one brick along each of `D` axes, in elements.
///
/// Axis 0 is the unit-stride ("i") axis, matching the paper's `i-j-k`
/// convention where `Brick<Dim<8,8,8>>` lists extents slowest-first in C++
/// but indexes fastest-last; here `dims[0]` is always the fastest axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BrickDims<const D: usize> {
    dims: [usize; D],
}

impl<const D: usize> BrickDims<D> {
    /// New brick extents. All extents must be non-zero.
    pub fn new(dims: [usize; D]) -> Self {
        assert!(D >= 1, "bricks need at least one axis");
        assert!(dims.iter().all(|&d| d > 0), "brick extents must be positive");
        BrickDims { dims }
    }

    /// Cubic brick `n^D`.
    pub fn cubic(n: usize) -> Self {
        Self::new([n; D])
    }

    /// Per-axis extents.
    #[inline]
    pub fn extents(&self) -> [usize; D] {
        self.dims
    }

    /// Extent along one axis.
    #[inline]
    pub fn extent(&self, axis: usize) -> usize {
        self.dims[axis]
    }

    /// Elements per brick (product of extents).
    #[inline]
    pub fn elements(&self) -> usize {
        self.dims.iter().product()
    }

    /// Flatten an in-brick element coordinate (each `pos[a] < extent(a)`)
    /// to its offset within the brick, axis 0 fastest.
    #[inline]
    pub fn flatten(&self, pos: [usize; D]) -> usize {
        let mut off = 0usize;
        for a in (0..D).rev() {
            debug_assert!(pos[a] < self.dims[a]);
            off = off * self.dims[a] + pos[a];
        }
        off
    }

    /// Inverse of [`BrickDims::flatten`].
    #[cfg(test)]
    // Indexed loops read clearer than zip chains over parallel arrays here.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn unflatten(&self, mut off: usize) -> [usize; D] {
        let mut pos = [0usize; D];
        for a in 0..D {
            pos[a] = off % self.dims[a];
            off /= self.dims[a];
        }
        debug_assert_eq!(off, 0);
        pos
    }

    /// Resolve a possibly out-of-brick signed element offset into
    /// `(neighbor direction trits, wrapped in-brick coordinate)`.
    ///
    /// Each `pos[a]` may range over `-extent(a) .. 2*extent(a)`, i.e. one
    /// brick beyond either face, the reach needed by any stencil whose
    /// radius does not exceed the brick extent.
    #[inline]
    pub fn resolve(&self, pos: [isize; D]) -> ([i8; D], [usize; D]) {
        let mut trits = [0i8; D];
        let mut local = [0usize; D];
        for a in 0..D {
            let e = self.dims[a] as isize;
            let p = pos[a];
            debug_assert!(
                p >= -e && p < 2 * e,
                "element offset {p} out of the one-brick reach on axis {a}"
            );
            if p < 0 {
                trits[a] = -1;
                local[a] = (p + e) as usize;
            } else if p >= e {
                trits[a] = 1;
                local[a] = (p - e) as usize;
            } else {
                local[a] = p as usize;
            }
        }
        (trits, local)
    }
}

/// Map per-axis direction trits to the dense base-3 adjacency code used by
/// [`crate::info::BrickInfo`]: trit 0 → 0, +1 → 1, -1 → 2, axis 0 least
/// significant. Code 0 is "self". Matches `layout::Dir::code`.
#[inline]
pub fn trits_to_code<const D: usize>(trits: [i8; D]) -> usize {
    let mut c = 0usize;
    for a in (0..D).rev() {
        let t = match trits[a] {
            0 => 0usize,
            1 => 1,
            -1 => 2,
            _ => unreachable!(),
        };
        c = c * 3 + t;
    }
    c
}

/// Inverse of [`trits_to_code`].
#[inline]
// Indexed loops read clearer than zip chains over parallel arrays here.
#[allow(clippy::needless_range_loop)]
pub fn code_to_trits<const D: usize>(mut code: usize) -> [i8; D] {
    let mut trits = [0i8; D];
    for a in 0..D {
        trits[a] = match code % 3 {
            0 => 0,
            1 => 1,
            2 => -1,
            _ => unreachable!(),
        };
        code /= 3;
    }
    trits
}

/// Number of adjacency slots for `D` axes (`3^D`, including self).
#[inline]
pub const fn adjacency_size(d: usize) -> usize {
    let mut n = 1usize;
    let mut i = 0;
    while i < d {
        n *= 3;
        i += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flatten_roundtrip() {
        let bd = BrickDims::new([4, 3, 2]);
        assert_eq!(bd.elements(), 24);
        for off in 0..24 {
            assert_eq!(bd.flatten(bd.unflatten(off)), off);
        }
        // Axis 0 is fastest.
        assert_eq!(bd.flatten([1, 0, 0]), 1);
        assert_eq!(bd.flatten([0, 1, 0]), 4);
        assert_eq!(bd.flatten([0, 0, 1]), 12);
    }

    #[test]
    fn resolve_in_brick() {
        let bd = BrickDims::<3>::cubic(8);
        let (t, l) = bd.resolve([3, 4, 5]);
        assert_eq!(t, [0, 0, 0]);
        assert_eq!(l, [3, 4, 5]);
    }

    #[test]
    fn resolve_across_faces() {
        let bd = BrickDims::<3>::cubic(8);
        let (t, l) = bd.resolve([-1, 0, 8]);
        assert_eq!(t, [-1, 0, 1]);
        assert_eq!(l, [7, 0, 0]);
        let (t, l) = bd.resolve([-8, 15, 7]);
        assert_eq!(t, [-1, 1, 0]);
        assert_eq!(l, [0, 7, 7]);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn resolve_beyond_one_brick_panics() {
        let bd = BrickDims::<2>::cubic(4);
        bd.resolve([8, 0]);
    }

    #[test]
    fn code_roundtrip() {
        for code in 0..27 {
            assert_eq!(trits_to_code::<3>(code_to_trits::<3>(code)), code);
        }
        assert_eq!(trits_to_code::<3>([0, 0, 0]), 0);
        assert_eq!(adjacency_size(3), 27);
        assert_eq!(adjacency_size(2), 9);
    }

    #[test]
    fn code_matches_layout_dir_code() {
        // The adjacency code must agree with layout::Dir::code so the two
        // crates can share tables. Mirrors layout's trit convention.
        // +1 on axis 0 => code 1; -1 on axis 0 => code 2; +1 on axis 1 => 3.
        assert_eq!(trits_to_code::<3>([1, 0, 0]), 1);
        assert_eq!(trits_to_code::<3>([-1, 0, 0]), 2);
        assert_eq!(trits_to_code::<3>([0, 1, 0]), 3);
        assert_eq!(trits_to_code::<3>([0, 0, -1]), 18);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        BrickDims::new([8, 0, 8]);
    }
}
