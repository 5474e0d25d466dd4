//! Shift exchange — the dimension-by-dimension alternative to the
//! paper's all-neighbors-at-once ("Put") exchange (paper Section 8,
//! citing Palmer & Nieplocha): axis passes send only 2 messages each
//! and corner data reaches diagonal neighbors transitively, at the cost
//! of `D` serialized latency phases.
//!
//! The paper remarks Shift "is straightforward to implement using
//! memory mapping" — [`Exchanger::shift`] is that schedule: every
//! pass sends and receives through views, because the slabs (which
//! include previously-received ghost bricks) are scattered across the
//! layout-ordered storage. The views are cut by `memmap.rs` like
//! MemMap's, and the passes run on the one brick exchange
//! ([`crate::ExchangeSession`]): in order, the last one left posted by a
//! split exchange.

use std::ops::Range;

use layout::Dir;
use memview::{host_page_size, is_aligned};

use crate::decomp::BrickDecomp;
use crate::exchange::{Exchanger, ExchangeStats, Msg, Pass};

impl Exchanger {
    /// Shift's schedule: one pass per axis, each sending the two owned
    /// bands of slab bricks (`[positive, negative]` direction of travel)
    /// and receiving the two ghost bands, receives posted first. Every
    /// slab is a view, so every brick must be page-aligned (e.g. a
    /// [`crate::memmap::memmap_decomp`] decomposition, or 8³ f64 bricks
    /// whose 4 KiB exactly tile host pages). `2·D` messages; the wire
    /// bytes exceed the Put exchange's because earlier axes' ghosts are
    /// forwarded.
    pub fn shift<const D: usize>(decomp: &BrickDecomp<D>) -> Exchanger {
        let step = decomp.step();
        let brick_bytes = step * 8;
        assert!(
            is_aligned(brick_bytes, host_page_size()),
            "shift views need every brick page-aligned (brick bytes must be \
             a multiple of the host page; 8^3 f64 bricks are exactly 4 KiB)"
        );
        let ext = decomp.grid_extents();
        let gb = decomp.ghost_bricks();
        let mb = decomp.owned_bricks();

        let mut passes = Vec::with_capacity(D);
        let mut stats = ExchangeStats::default();
        for axis in 0..D {
            // Per-axis coordinate ranges of the slab cross-section:
            // axes already exchanged span the full extended grid (their
            // ghosts are valid and must be forwarded); later axes span
            // only the owned range.
            let cross = |b: usize| -> Range<usize> {
                if b < axis {
                    0..ext[b]
                } else {
                    gb[b]..gb[b] + mb[b]
                }
            };

            let (mut sends, mut recvs) = (Vec::with_capacity(2), Vec::with_capacity(2));
            for positive in [true, false] {
                let send_band = if positive {
                    gb[axis] + mb[axis] - gb[axis]..gb[axis] + mb[axis]
                } else {
                    gb[axis]..2 * gb[axis]
                };
                let recv_band = if positive {
                    // Receiving from N(-axis): fills my low ghost band.
                    0..gb[axis]
                } else {
                    ext[axis] - gb[axis]..ext[axis]
                };

                let dir = Dir::from_offsets(&axis_offsets::<D>(axis, positive));
                let tag = SHIFT_TAG_BASE + (axis as u64) * 4 + positive as u64;

                let send = slab_bricks(decomp, axis, send_band, &cross);
                let recv = slab_bricks(decomp, axis, recv_band, &cross);
                assert_eq!(send.len(), recv.len());
                let bytes = send.len() * brick_bytes;
                sends.push(Msg { dir, tag, runs: send, payload_bytes: bytes });
                recvs.push(Msg { dir: dir.mirror(), tag, runs: recv, payload_bytes: 0 });
                stats.messages += 1;
                stats.payload_bytes += bytes;
                stats.wire_bytes += bytes;
                stats.region_instances += 1;
            }
            let scope = PASS_NAMES[axis.min(PASS_NAMES.len() - 1)];
            passes.push(Pass { scope, sends, recvs, send_views: true, recv_views: true, recvs_first: true });
        }
        Exchanger { scope: Some(SCOPE), passes, stats, step, dims: D }
    }
}

/// Timeline scope of a whole exchange; the passes nest inside it.
const SCOPE: &str = "exchange:shift";

/// Timeline scope names for the serialized axis passes.
const PASS_NAMES: [&str; 4] = ["shift:pass-x", "shift:pass-y", "shift:pass-z", "shift:pass-w"];

/// Tag namespace for shift messages (distinct from the Put exchange's
/// direction-code tags).
const SHIFT_TAG_BASE: u64 = 0x5317_0000;

fn axis_offsets<const D: usize>(axis: usize, positive: bool) -> Vec<i8> {
    let mut o = vec![0i8; D];
    o[axis] = if positive { 1 } else { -1 };
    o
}

/// Enumerate slab bricks (extended-grid coords with `coord[axis]` in
/// `band` and other axes in `cross(b)`), in lexicographic order, as
/// one-brick runs of physical brick indices (the view cutter coalesces
/// the file-contiguous ones).
fn slab_bricks<const D: usize>(
    decomp: &BrickDecomp<D>,
    axis: usize,
    band: Range<usize>,
    cross: &dyn Fn(usize) -> Range<usize>,
) -> Vec<Range<usize>> {
    let mut ranges: Vec<Range<usize>> = (0..D).map(cross).collect();
    ranges[axis] = band;
    let mut out = Vec::new();
    let mut coord = [0usize; D];
    enumerate(&ranges, 0, &mut coord, &mut |c| {
        let b = decomp.brick_at(*c) as usize;
        out.push(b..b + 1);
    });
    out
}

fn enumerate<const D: usize>(
    ranges: &[Range<usize>],
    axis: usize,
    coord: &mut [usize; D],
    f: &mut impl FnMut(&[usize; D]),
) {
    if axis == D {
        f(coord);
        return;
    }
    // The order only needs to be *shared* between the send and receive
    // slabs (they correspond element-wise under translation).
    for v in ranges[axis].clone() {
        coord[axis] = v;
        enumerate(ranges, axis + 1, coord, f);
    }
}
