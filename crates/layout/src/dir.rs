//! Signed direction sets — the paper's `{A1-, A2+}` notation.
//!
//! A [`Dir`] identifies a neighbor, a surface region `r(T)`, or a ghost
//! region `g(S)` of a `D`-dimensional subdomain: for every axis it records
//! whether the set contains the positive direction, the negative direction,
//! or neither. The paper writes these as sets of signed axis numbers, e.g.
//! `{-1, 2}` for "negative along axis 1, positive along axis 2"; the code
//! representation in the paper's Figure 3(c) (`std::vector<BitSet>`) is
//! mirrored here by [`Dir::from_spec`].

use std::fmt;

/// Maximum number of axes supported by the bit-mask representation.
pub const MAX_DIMS: usize = 8;

/// A signed direction set over at most [`MAX_DIMS`] axes.
///
/// Invariant: `pos & neg == 0` (an axis cannot be both positive and
/// negative within one set).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dir {
    pos: u8,
    neg: u8,
}

impl Dir {
    /// The empty direction set (identifies the interior / self).
    pub const EMPTY: Dir = Dir { pos: 0, neg: 0 };

    /// Build from raw bit masks. Panics if an axis appears in both masks.
    #[inline]
    pub fn from_masks(pos: u8, neg: u8) -> Dir {
        assert_eq!(pos & neg, 0, "axis cannot be both positive and negative");
        Dir { pos, neg }
    }

    /// Build from the paper's signed 1-based axis list, e.g. `&[-1, 2]`
    /// is `{A1-, A2+}`. Panics on zero, out-of-range, or repeated axes.
    pub fn from_spec(spec: &[i8]) -> Dir {
        let mut d = Dir::EMPTY;
        for &s in spec {
            assert!(s != 0, "axis numbers are 1-based and signed; 0 is invalid");
            let axis = (s.unsigned_abs() as usize) - 1;
            assert!(axis < MAX_DIMS, "axis {} exceeds MAX_DIMS", s);
            let bit = 1u8 << axis;
            assert_eq!(
                (d.pos | d.neg) & bit,
                0,
                "axis {} appears more than once",
                s.abs()
            );
            if s > 0 {
                d.pos |= bit;
            } else {
                d.neg |= bit;
            }
        }
        d
    }

    /// Build from per-axis offsets in `{-1, 0, 1}` (the neighbor-grid
    /// offset of the identified neighbor).
    pub fn from_offsets(offsets: &[i8]) -> Dir {
        assert!(offsets.len() <= MAX_DIMS);
        let mut d = Dir::EMPTY;
        for (axis, &o) in offsets.iter().enumerate() {
            match o {
                0 => {}
                1 => d.pos |= 1 << axis,
                -1 => d.neg |= 1 << axis,
                _ => panic!("offset must be -1, 0, or 1; got {o}"),
            }
        }
        d
    }

    /// Per-axis offsets, `offsets[i] ∈ {-1, 0, 1}`, for the first `d` axes.
    pub fn offsets(&self, d: usize) -> Vec<i8> {
        (0..d).map(|axis| self.axis(axis)).collect()
    }

    /// The sign of this set along `axis`: -1, 0, or +1.
    #[inline]
    pub fn axis(&self, axis: usize) -> i8 {
        let bit = 1u8 << axis;
        if self.pos & bit != 0 {
            1
        } else if self.neg & bit != 0 {
            -1
        } else {
            0
        }
    }

    /// Raw positive mask.
    #[inline]
    pub fn pos_mask(&self) -> u8 {
        self.pos
    }

    /// Raw negative mask.
    #[inline]
    pub fn neg_mask(&self) -> u8 {
        self.neg
    }

    /// Number of axes in the set (`|T|` in the paper).
    #[inline]
    pub fn len(&self) -> u32 {
        (self.pos | self.neg).count_ones()
    }

    /// True for the empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos == 0 && self.neg == 0
    }

    /// Sign-preserving superset test: `self ⊇ other`.
    ///
    /// This is the relation that decides which surface regions travel to
    /// which neighbor: region `r(T)` is sent to neighbor `N(S)` iff `T ⊇ S`.
    #[inline]
    pub fn superset_of(&self, other: &Dir) -> bool {
        (self.pos & other.pos) == other.pos && (self.neg & other.neg) == other.neg
    }

    /// Mirror every axis: `{A1-, A2+}` becomes `{A1+, A2-}`.
    ///
    /// The surface region `r(-S)` of neighbor `N(S)` faces my ghost region
    /// `g(S)`.
    #[inline]
    pub fn mirror(&self) -> Dir {
        Dir { pos: self.neg, neg: self.pos }
    }

    /// Flip only the axes present in `axes`: where a region lands after
    /// travelling toward `axes`. Sending `r(T)` toward `S` fills the
    /// receiver's slot `T.flip(S)`.
    #[inline]
    pub fn flip(&self, axes: &Dir) -> Dir {
        let m = axes.pos | axes.neg;
        Dir {
            pos: (self.pos & !m) | (self.neg & m),
            neg: (self.neg & !m) | (self.pos & m),
        }
    }

    /// Set union. Panics if the result would put an axis in both
    /// directions.
    #[inline]
    pub fn union(&self, other: &Dir) -> Dir {
        Dir::from_masks(self.pos | other.pos, self.neg | other.neg)
    }

    /// True if the two sets share no axes (signs ignored).
    #[cfg(test)]
    pub(crate) fn axes_disjoint(&self, other: &Dir) -> bool {
        ((self.pos | self.neg) & (other.pos | other.neg)) == 0
    }

    /// Dense index of this direction set among all 3^d sets over `d` axes
    /// (base-3 encoding; empty set maps to 0 only when all trits are 0 —
    /// note the empty set *is* index 0). Useful as a table key.
    pub fn code(&self, d: usize) -> usize {
        let mut c = 0usize;
        for axis in (0..d).rev() {
            let trit = match self.axis(axis) {
                0 => 0usize,
                1 => 1,
                -1 => 2,
                _ => unreachable!(),
            };
            c = c * 3 + trit;
        }
        c
    }

    /// Inverse of [`Dir::code`].
    pub fn from_code(mut code: usize, d: usize) -> Dir {
        let mut dir = Dir::EMPTY;
        for axis in 0..d {
            match code % 3 {
                0 => {}
                1 => dir.pos |= 1 << axis,
                2 => dir.neg |= 1 << axis,
                _ => unreachable!(),
            }
            code /= 3;
        }
        assert_eq!(code, 0, "code out of range for {} dims", d);
        dir
    }

    /// The paper's set notation as signed 1-based axis numbers, sorted by
    /// axis, e.g. `[-1, 2]`.
    pub fn spec(&self) -> Vec<i8> {
        let mut v = Vec::new();
        for axis in 0..MAX_DIMS {
            match self.axis(axis) {
                1 => v.push((axis + 1) as i8),
                -1 => v.push(-((axis + 1) as i8)),
                _ => {}
            }
        }
        v
    }
}

impl fmt::Debug for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let spec = self.spec();
        for (i, s) in spec.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Enumerate all `3^d - 1` non-empty direction sets over `d` axes, in
/// base-3 code order. These identify both the neighbors and the
/// surface/ghost regions of a `d`-dimensional subdomain.
pub fn all_regions(d: usize) -> Vec<Dir> {
    assert!((1..=MAX_DIMS).contains(&d));
    let n = 3usize.pow(d as u32);
    (1..n).map(|c| Dir::from_code(c, d)).collect()
}

/// Enumerate every direction set including the empty one (`3^d` sets).
pub fn all_regions_with_empty(d: usize) -> Vec<Dir> {
    assert!((1..=MAX_DIMS).contains(&d));
    let n = 3usize.pow(d as u32);
    (0..n).map(|c| Dir::from_code(c, d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_roundtrip() {
        let d = Dir::from_spec(&[-1, 2]);
        assert_eq!(d.spec(), vec![-1, 2]);
        assert_eq!(d.axis(0), -1);
        assert_eq!(d.axis(1), 1);
        assert_eq!(d.axis(2), 0);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn empty_set() {
        assert!(Dir::EMPTY.is_empty());
        assert_eq!(Dir::EMPTY.len(), 0);
        assert_eq!(Dir::from_spec(&[]), Dir::EMPTY);
    }

    #[test]
    #[should_panic(expected = "more than once")]
    fn duplicate_axis_rejected() {
        Dir::from_spec(&[1, -1]);
    }

    #[test]
    #[should_panic(expected = "0 is invalid")]
    fn zero_axis_rejected() {
        Dir::from_spec(&[0]);
    }

    #[test]
    fn superset_relation() {
        let corner = Dir::from_spec(&[-1, -2]);
        let left = Dir::from_spec(&[-1]);
        let down = Dir::from_spec(&[-2]);
        let right = Dir::from_spec(&[1]);
        assert!(corner.superset_of(&left));
        assert!(corner.superset_of(&down));
        assert!(corner.superset_of(&corner));
        assert!(!corner.superset_of(&right));
        assert!(!left.superset_of(&corner));
        // Everything is a superset of the empty set.
        assert!(corner.superset_of(&Dir::EMPTY));
    }

    #[test]
    fn mirror_and_flip() {
        let t = Dir::from_spec(&[-1, 2]);
        assert_eq!(t.mirror(), Dir::from_spec(&[1, -2]));
        assert_eq!(t.mirror().mirror(), t);
        // Travelling toward {-1} flips only axis 1.
        let s = Dir::from_spec(&[-1]);
        assert_eq!(t.flip(&s), Dir::from_spec(&[1, 2]));
        // Flipping by the full set equals mirroring.
        assert_eq!(t.flip(&t), t.mirror());
        // Flipping twice is identity.
        assert_eq!(t.flip(&s).flip(&s), t);
    }

    #[test]
    fn code_roundtrip_3d() {
        for c in 0..27 {
            let d = Dir::from_code(c, 3);
            assert_eq!(d.code(3), c);
        }
    }

    #[test]
    fn all_regions_counts() {
        for d in 1..=5 {
            let regions = all_regions(d);
            assert_eq!(regions.len(), 3usize.pow(d as u32) - 1);
            // All distinct, none empty.
            let mut sorted = regions.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), regions.len());
            assert!(regions.iter().all(|r| !r.is_empty()));
        }
    }

    #[test]
    fn offsets_roundtrip() {
        let d = Dir::from_spec(&[-1, 3]);
        assert_eq!(d.offsets(3), vec![-1, 0, 1]);
        assert_eq!(Dir::from_offsets(&[-1, 0, 1]), d);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(format!("{}", Dir::from_spec(&[-1, -2])), "{-1,-2}");
        assert_eq!(format!("{}", Dir::from_spec(&[1, 2])), "{1,2}");
    }

    #[test]
    fn union_and_disjoint() {
        let a = Dir::from_spec(&[-1]);
        let b = Dir::from_spec(&[2]);
        assert!(a.axes_disjoint(&b));
        assert_eq!(a.union(&b), Dir::from_spec(&[-1, 2]));
    }

    #[test]
    #[should_panic]
    fn union_conflicting_signs_panics() {
        let a = Dir::from_spec(&[-1]);
        let b = Dir::from_spec(&[1]);
        let _ = a.union(&b);
    }
}
