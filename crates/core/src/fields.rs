//! Field utilities over a decomposition: filling, reading, and
//! verifying brick storage by *global* element coordinates, shared by
//! the experiment drivers, tests, and examples.
//!
//! Every function here is a whole-grid walk, and each goes through one
//! of [`BrickDecomp`]'s two walks instead of a per-point
//! [`BrickDecomp::element_offset`]:
//! - [`fill_interior`] does not depend on order, so it writes the owned
//!   bricks front to back in storage order
//!   ([`BrickDecomp::owned_brick_bases`]);
//! - the others walk a coordinate box in the canonical order — axis 0
//!   outermost, the last axis innermost — with offsets from per-axis
//!   tables the decomposition keeps ([`BrickDecomp::box_offsets`]), so
//!   no walk allocates.
//!
//! [`interior_sum`] is every brick engine's checksum. Its order (and
//! its one sequential accumulator) is fixed: every bit-identity suite
//! compares its bits, so summing in any other order would change them.

use brick::BrickStorage;

use crate::decomp::{BoxOffsets, BrickDecomp};

/// Fill the owned interior of `field` from a coordinate function. Ghost
/// rim and alignment filler are left as they are.
pub fn fill_interior<const D: usize>(
    decomp: &BrickDecomp<D>,
    st: &mut BrickStorage,
    field: usize,
    f: impl Fn([usize; D]) -> f64,
) {
    assert!(field < decomp.fields(), "field {field} of {}", decomp.fields());
    let bd = decomp.brick_dims();
    let (step, elems) = (decomp.step(), bd.elements());
    let field_base = field * elems;
    let data = st.as_mut_slice();
    for (b, base) in decomp.owned_brick_bases() {
        let brick = &mut data[b * step + field_base..][..elems];
        // In-brick storage order: axis 0 fastest, one row per step of
        // the outer axes.
        let mut coord = base;
        for row in brick.chunks_exact_mut(bd.extent(0)) {
            for (x, v) in row.iter_mut().enumerate() {
                coord[0] = base[0] + x;
                *v = f(coord);
            }
            for a in 1..D {
                coord[a] += 1;
                if coord[a] < base[a] + bd.extent(a) {
                    break;
                }
                coord[a] = base[a];
            }
        }
    }
}

/// Fill the ghost rim by periodically wrapping the interior (the ground
/// truth for self-periodic domains and compute-only runs).
pub fn fill_ghosts_periodic<const D: usize>(
    decomp: &BrickDecomp<D>,
    st: &mut BrickStorage,
    field: usize,
) {
    let dom = decomp.domain();
    let offsets = extended_box(decomp, field);
    let data = st.as_mut_slice();
    offsets.for_each(|coord, off| {
        if !is_interior(coord, dom) {
            data[off] = data[offsets.offset(wrap(coord, dom))];
        }
    });
}

/// Sum over the owned interior of `field`, in the canonical order (see
/// the module docs).
pub fn interior_sum<const D: usize>(
    decomp: &BrickDecomp<D>,
    st: &BrickStorage,
    field: usize,
) -> f64 {
    let data = st.as_slice();
    let mut s = 0.0;
    interior_box(decomp, field).for_each(|_, off| s += data[off]);
    s
}

/// Count ghost elements whose value differs from `expect(coord)`
/// (coordinates in the owned frame, possibly negative).
pub fn ghost_mismatches<const D: usize>(
    decomp: &BrickDecomp<D>,
    st: &BrickStorage,
    field: usize,
    expect: impl Fn([isize; D]) -> f64,
) -> usize {
    let dom = decomp.domain();
    let data = st.as_slice();
    let mut errors = 0usize;
    extended_box(decomp, field).for_each(|coord, off| {
        if !is_interior(coord, dom) && data[off] != expect(coord) {
            errors += 1;
        }
    });
    errors
}

/// Visit every owned interior coordinate, in the canonical order.
pub fn for_each_interior<const D: usize>(
    decomp: &BrickDecomp<D>,
    mut f: impl FnMut([usize; D]),
) {
    interior_box(decomp, 0).for_each(|coord, _| f(coord.map(|v| v as usize)));
}

/// Visit every extended coordinate (owned frame, ghost rim included), in
/// the canonical order.
pub fn for_each_extended<const D: usize>(
    decomp: &BrickDecomp<D>,
    mut f: impl FnMut([isize; D]),
) {
    extended_box(decomp, 0).for_each(|coord, _| f(coord));
}

fn interior_box<const D: usize>(
    decomp: &BrickDecomp<D>,
    field: usize,
) -> BoxOffsets<'_, D> {
    decomp.box_offsets([0; D], decomp.domain().map(|n| n as isize), field)
}

fn extended_box<const D: usize>(
    decomp: &BrickDecomp<D>,
    field: usize,
) -> BoxOffsets<'_, D> {
    let g = decomp.ghost_width() as isize;
    decomp.box_offsets([-g; D], decomp.domain().map(|n| n as isize + g), field)
}

fn is_interior<const D: usize>(coord: [isize; D], dom: [usize; D]) -> bool {
    (0..D).all(|a| coord[a] >= 0 && (coord[a] as usize) < dom[a])
}

/// The interior coordinate a rim coordinate wraps to. The rim is at most
/// half the domain wide, so one add or subtract lands inside.
fn wrap<const D: usize>(coord: [isize; D], dom: [usize; D]) -> [isize; D] {
    std::array::from_fn(|a| {
        let n = dom[a] as isize;
        if coord[a] < 0 {
            coord[a] + n
        } else if coord[a] >= n {
            coord[a] - n
        } else {
            coord[a]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick::BrickDims;
    use layout::{surface2d, surface3d, SurfaceLayout};

    fn decomp() -> BrickDecomp<3> {
        BrickDecomp::<3>::layout_mode([16; 3], 8, BrickDims::cubic(8), 1, surface3d())
    }

    #[test]
    fn fill_and_sum() {
        let d = decomp();
        let mut st = d.allocate();
        fill_interior(&d, &mut st, 0, |_| 2.0);
        assert_eq!(interior_sum(&d, &st, 0), 2.0 * 16.0 * 16.0 * 16.0);
    }

    #[test]
    fn periodic_ghost_fill_matches_wrap() {
        let d = decomp();
        let mut st = d.allocate();
        fill_interior(&d, &mut st, 0, |c| (c[0] + 20 * c[1] + 400 * c[2]) as f64);
        fill_ghosts_periodic(&d, &mut st, 0);
        let errors = ghost_mismatches(&d, &st, 0, |c| {
            let w = |v: isize| v.rem_euclid(16) as usize;
            (w(c[0]) + 20 * w(c[1]) + 400 * w(c[2])) as f64
        });
        assert_eq!(errors, 0);
    }

    #[test]
    fn extended_visit_counts() {
        let d = decomp();
        let mut n = 0usize;
        for_each_extended(&d, |_| n += 1);
        assert_eq!(n, 32 * 32 * 32);
        let mut m = 0usize;
        for_each_interior(&d, |_| m += 1);
        assert_eq!(m, 16 * 16 * 16);
    }

    // --- The oracle: one `element_offset` per point, in the canonical
    // order, as these walks were written before they went through the
    // decomposition's tables.

    /// Every coordinate of the box `lo..hi`, axis 0 outermost.
    fn oracle_coords<const D: usize>(lo: [isize; D], hi: [isize; D]) -> Vec<[isize; D]> {
        let mut out = vec![lo];
        for a in 0..D {
            out = out
                .into_iter()
                .flat_map(|c| (lo[a]..hi[a]).map(move |v| {
                    let mut c = c;
                    c[a] = v;
                    c
                }))
                .collect();
        }
        out
    }

    fn oracle_interior<const D: usize>(d: &BrickDecomp<D>) -> Vec<[isize; D]> {
        oracle_coords([0; D], d.domain().map(|n| n as isize))
    }

    fn oracle_extended<const D: usize>(d: &BrickDecomp<D>) -> Vec<[isize; D]> {
        let g = d.ghost_width() as isize;
        oracle_coords([-g; D], d.domain().map(|n| n as isize + g))
    }

    fn oracle_in_rim<const D: usize>(d: &BrickDecomp<D>, c: &[isize; D]) -> bool {
        (0..D).any(|a| c[a] < 0 || c[a] >= d.domain()[a] as isize)
    }

    fn oracle_fill<const D: usize>(
        d: &BrickDecomp<D>,
        st: &mut BrickStorage,
        field: usize,
        f: impl Fn([usize; D]) -> f64,
    ) {
        for c in oracle_interior(d) {
            st.as_mut_slice()[d.element_offset(c, field)] = f(c.map(|v| v as usize));
        }
    }

    fn oracle_sum<const D: usize>(d: &BrickDecomp<D>, st: &BrickStorage, field: usize) -> f64 {
        oracle_interior(d).iter().fold(0.0, |s, &c| s + st.as_slice()[d.element_offset(c, field)])
    }

    fn oracle_ghosts_periodic<const D: usize>(d: &BrickDecomp<D>, st: &mut BrickStorage, field: usize) {
        for c in oracle_extended(d).into_iter().filter(|c| oracle_in_rim(d, c)) {
            let src: [isize; D] = std::array::from_fn(|a| c[a].rem_euclid(d.domain()[a] as isize));
            let v = st.as_slice()[d.element_offset(src, field)];
            st.as_mut_slice()[d.element_offset(c, field)] = v;
        }
    }

    fn oracle_mismatches<const D: usize>(
        d: &BrickDecomp<D>,
        st: &BrickStorage,
        field: usize,
        expect: impl Fn([isize; D]) -> f64,
    ) -> usize {
        oracle_extended(d)
            .into_iter()
            .filter(|c| oracle_in_rim(d, c) && st.as_slice()[d.element_offset(*c, field)] != expect(*c))
            .count()
    }

    fn bits(st: &BrickStorage) -> Vec<u64> {
        st.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// A value no two points share whose sum rounds differently in a
    /// different order, so the checksum comparison sees the order.
    fn value<const D: usize>(c: [usize; D]) -> f64 {
        let key = c.iter().fold(0.0, |k, &v| k * 67.0 + v as f64 + 1.0);
        1.0 / key + key.sqrt()
    }

    /// Each walk against the oracle on NaN-poisoned storage: the fill
    /// and the periodic ghost fill leave bitwise-equal storage (so the
    /// rim, the other fields and the filler bricks stay NaN), the sum
    /// returns the same bits, the mismatch counts agree with one planted,
    /// and the coordinate walks visit the oracle's coordinates in order.
    fn agree_with_oracle<const D: usize>(d: &BrickDecomp<D>, what: &str) {
        let dom = d.domain();
        let mut visited = Vec::new();
        for_each_interior(d, |c| visited.push(c.map(|v| v as isize)));
        assert_eq!(visited, oracle_interior(d), "{what}: interior order");
        let mut visited = Vec::new();
        for_each_extended(d, |c| visited.push(c));
        assert_eq!(visited, oracle_extended(d), "{what}: extended order");

        for field in 0..d.fields() {
            let what = format!("{what}, field {field}");
            let poisoned = || {
                let mut st = d.allocate();
                st.as_mut_slice().fill(f64::NAN);
                st
            };
            let (mut got, mut want) = (poisoned(), poisoned());
            fill_interior(d, &mut got, field, value);
            oracle_fill(d, &mut want, field, value);
            assert!(bits(&got) == bits(&want), "{what}: fill_interior storage");
            let written = got.as_slice().iter().filter(|v| !v.is_nan()).count();
            assert_eq!(written, dom.iter().product::<usize>(), "{what}: fill wrote outside the owned points");

            assert_eq!(
                interior_sum(d, &got, field).to_bits(),
                oracle_sum(d, &want, field).to_bits(),
                "{what}: interior_sum bits"
            );

            fill_ghosts_periodic(d, &mut got, field);
            oracle_ghosts_periodic(d, &mut want, field);
            assert!(bits(&got) == bits(&want), "{what}: fill_ghosts_periodic storage");

            let expect = |c: [isize; D]| value::<D>(std::array::from_fn(|a| c[a].rem_euclid(dom[a] as isize) as usize));
            assert_eq!(ghost_mismatches(d, &got, field, expect), 0, "{what}: clean rim");
            let corner = d.element_offset([-1; D], field);
            got.as_mut_slice()[corner] = -1.0;
            want.as_mut_slice()[corner] = -1.0;
            assert_eq!(ghost_mismatches(d, &got, field, expect), 1, "{what}: planted mismatch");
            assert_eq!(oracle_mismatches(d, &want, field, expect), 1, "{what}: oracle's planted mismatch");
        }
    }

    #[test]
    fn walks_match_the_per_point_oracle() {
        // Non-cubic domains and bricks, ghosts of one and two bricks on
        // different axes, two interleaved fields, alignment filler.
        let d2 = BrickDecomp::<2>::new([24, 32], 8, BrickDims::new([4, 8]), 2, surface2d(), 3);
        assert_eq!(d2.ghost_bricks(), [2, 1]);
        agree_with_oracle(&d2, "2-D, pad 3");
        let d2 = BrickDecomp::<2>::layout_mode([16, 24], 4, BrickDims::new([4, 2]), 1, surface2d());
        agree_with_oracle(&d2, "2-D, unpadded");

        let d3 = BrickDecomp::<3>::new([16, 24, 32], 8, BrickDims::new([8, 4, 8]), 2, surface3d(), 4);
        assert_eq!(d3.ghost_bricks(), [1, 2, 1]);
        assert!(d3.bricks() > d3.grid_extents().iter().product(), "filler bricks present");
        agree_with_oracle(&d3, "3-D, pad 4");
        agree_with_oracle(&decomp(), "3-D cubic, unpadded");

        let d4 = BrickDecomp::<4>::new(
            [8, 12, 8, 16],
            4,
            BrickDims::new([4, 4, 2, 4]),
            2,
            SurfaceLayout::lexicographic(4),
            2,
        );
        assert_eq!(d4.ghost_bricks(), [1, 1, 2, 1]);
        agree_with_oracle(&d4, "4-D, pad 2");
    }
}
