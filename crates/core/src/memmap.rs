//! MemMap exchange (paper Section 4): brick storage lives in a
//! `memfd` file with page-aligned chunks; per-neighbor `mmap` views make
//! all regions bound for one neighbor appear contiguous, so exactly one
//! message per neighbor suffices — no packing, minimal message count,
//! at the price of padding.
//!
//! [`Exchanger::memmap`] is the 26-message schedule, cut from the
//! Layout schedule ([`Exchanger::layout`]): the runs Layout sends one
//! neighbor become the segments of that neighbor's view. This module
//! holds the mapped grids and the one view cutter every view-sending
//! schedule (MemMap's and Shift's) is cut with; the exchange itself is
//! the one [`ExchangeSession`] — each send a view, each receive a ghost
//! range of the storage the views alias.

use std::borrow::{Borrow, BorrowMut};
use std::io;
use std::ops::Range;
use std::sync::Arc;

use brick::BrickStorage;
use memview::{host_page_size, is_aligned, ContiguousView, MappedGrid, MemFile, Segment};

use crate::decomp::{pad_bricks_for, BrickDecomp};
use crate::exchange::{ExchangeSession, Exchanger, Msg, Pass};

/// Brick storage whose backing is an mmap-able in-memory file (the
/// paper's `bInfo.mmap_alloc(bSize)`).
pub struct MemMapStorage {
    /// The grid's file. It drops before `storage`, so the grid finds its
    /// file otherwise unheld and goes back to the pool of mapped grids.
    file: Arc<MemFile>,
    /// The storage (usable exactly like heap storage for computation).
    pub storage: BrickStorage,
}

impl MemMapStorage {
    /// Allocate mmap-backed storage for `decomp`: a zeroed
    /// [`MappedGrid`], the whole-file view of a memfd of its own, reused
    /// from an earlier grid of this length when one was dropped
    /// unaliased. The decomposition must have been built with the
    /// page-matching pad unit ([`memmap_decomp`] does this for you);
    /// storage that is not a whole number of host pages is
    /// `InvalidInput`.
    pub fn allocate<const D: usize>(decomp: &BrickDecomp<D>) -> io::Result<MemMapStorage> {
        let step = decomp.step();
        let bytes = decomp.bricks() * step * 8;
        if !is_aligned(bytes, host_page_size()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{bytes} B of brick storage is not a whole number of host pages"),
            ));
        }
        let grid = MappedGrid::new(bytes)?;
        let file = Arc::clone(grid.file());
        let storage =
            BrickStorage::from_backing(Box::new(grid), decomp.bricks(), decomp.brick_dims().elements(), decomp.fields());
        Ok(MemMapStorage { file, storage })
    }

    /// The backing file.
    pub fn file(&self) -> &Arc<MemFile> {
        &self.file
    }
}

/// Build a MemMap-ready decomposition: chunk padding matches
/// `page_size` (which may be an *emulated* page size — any multiple of
/// the host page — for the paper's Figure 18 sweep).
pub fn memmap_decomp<const D: usize>(
    domain: [usize; D],
    ghost: usize,
    bdims: brick::BrickDims<D>,
    fields: usize,
    layout: layout::SurfaceLayout,
    page_size: usize,
) -> BrickDecomp<D> {
    assert!(
        page_size.is_multiple_of(host_page_size()),
        "emulated page size must be a multiple of the host page"
    );
    let brick_bytes = bdims.elements() * fields * 8;
    let pad = pad_bricks_for(page_size, brick_bytes);
    BrickDecomp::new(domain, ghost, bdims, fields, layout, pad)
}

impl Borrow<BrickStorage> for MemMapStorage {
    fn borrow(&self) -> &BrickStorage {
        &self.storage
    }
}

impl BorrowMut<BrickStorage> for MemMapStorage {
    fn borrow_mut(&mut self) -> &mut BrickStorage {
        &mut self.storage
    }
}

/// The MemMap exchange (the paper's `ExchangeView`, Fig. 7, right
/// column): [`Exchanger::memmap`] cut over one [`MemMapStorage`].
// Kept for its callers until ROADMAP item 3 moves them onto
// `ExchangeSession::new`.
pub type ExchangeView = ExchangeSession;

impl Exchanger {
    /// MemMap's schedule (paper §4), cut from Layout's
    /// ([`Exchanger::layout`]): the runs Layout sends one neighbor become
    /// the segments of one view — one message per neighbor — and the
    /// ghost runs it receives from one neighbor, adjacent in storage, one
    /// range. Views are reused every timestep ("until the communication
    /// pattern changes"); the decomposition must be page-padded
    /// ([`memmap_decomp`]).
    pub fn memmap<const D: usize>(decomp: &BrickDecomp<D>) -> Exchanger {
        let mut schedule = Exchanger::layout(decomp);
        let d = schedule.dims;
        let layout = schedule.passes.pop().expect("one pass");
        let sends: Vec<Msg> = layout
            .sends
            .chunk_by(|a, b| a.dir == b.dir)
            .map(|runs| Msg {
                dir: runs[0].dir,
                tag: runs[0].dir.code(d) as u64,
                runs: runs.iter().flat_map(|m| m.runs.clone()).collect(),
                payload_bytes: runs.iter().map(|m| m.payload_bytes).sum(),
            })
            .collect();
        let recvs: Vec<Msg> = layout
            .recvs
            .chunk_by(|a, b| a.dir == b.dir)
            .map(|runs| {
                let (dir, span) = (runs[0].dir, runs[0].runs[0].start..runs[runs.len() - 1].runs[0].end);
                Msg { dir, tag: dir.mirror().code(d) as u64, runs: vec![span], payload_bytes: 0 }
            })
            .collect();
        assert_eq!(sends.len(), recvs.len());
        schedule.stats.messages = sends.len();
        let pass = Pass { scope: "exchange:memmap", sends, recvs, send_views: true, recv_views: false, recvs_first: false };
        schedule.passes.push(pass);
        schedule
    }
}

/// The one place views are cut: the view of one message, its `runs` of
/// `brick_bytes` bricks in `file` mapped back to back, file-contiguous
/// runs sharing one segment.
pub(crate) fn cut_view(file: &Arc<MemFile>, runs: &[Range<usize>], brick_bytes: usize) -> io::Result<ContiguousView> {
    let host = host_page_size();
    let mut segments: Vec<Segment> = Vec::with_capacity(runs.len());
    for run in runs {
        let (file_offset, len) = (run.start * brick_bytes, run.len() * brick_bytes);
        assert!(
            is_aligned(file_offset, host) && is_aligned(len, host),
            "chunk padding does not satisfy the host page size; \
             build the decomposition with memmap_decomp"
        );
        match segments.last_mut() {
            Some(s) if s.file_offset + s.len == file_offset => s.len += len,
            _ => segments.push(Segment { file_offset, len }),
        }
    }
    ContiguousView::build(file, &segments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use brick::BrickDims;
    use layout::surface3d;
    use netsim::{run_cluster, run_cluster_faulty, CartTopo, FaultConfig, NetworkModel};

    fn mk(n: usize, page: usize) -> (BrickDecomp<3>, MemMapStorage) {
        let d = memmap_decomp([n; 3], 8, BrickDims::cubic(8), 1, surface3d(), page);
        let st = MemMapStorage::allocate(&d).unwrap();
        (d, st)
    }

    /// MemMap's exchange of one grid.
    fn cut(d: &BrickDecomp<3>, st: &MemMapStorage) -> ExchangeSession {
        ExchangeSession::new(&Exchanger::memmap(d), Some(st)).unwrap()
    }

    #[test]
    fn one_message_per_neighbor() {
        let (d, st) = mk(48, memview::PAGE_4K);
        let ev = cut(&d, &st);
        assert_eq!(ev.stats().messages, 26);
        // Layout optimization keeps mappings at the run count (42).
        assert_eq!(ev.mapped_segments(), 42);
        // Lexicographic order: still one message per neighbor, and one
        // segment per run of that order — No-Layout's message count.
        for (n, segments) in [(16, 42), (32, 62), (64, 62)] {
            let lex = layout::SurfaceLayout::lexicographic(3);
            let d = memmap_decomp([n; 3], 8, BrickDims::cubic(8), 1, lex, memview::PAGE_4K);
            let ev = cut(&d, &MemMapStorage::allocate(&d).unwrap());
            assert_eq!((ev.stats().messages, ev.mapped_segments()), (26, segments), "lexicographic {n}^3");
            assert_eq!(ev.mapped_segments(), Exchanger::layout(&d).stats().messages, "lexicographic {n}^3");
        }
    }

    #[test]
    fn padding_overhead_zero_for_4k_pages_and_8cubed_bricks() {
        // One 8^3 f64 brick = exactly one 4 KiB page: no waste.
        let (d, _) = mk(48, memview::PAGE_4K);
        assert_eq!(Exchanger::memmap(&d).stats().padding_overhead_percent(), 0.0);
    }

    #[test]
    fn padding_overhead_grows_with_page_size() {
        let (d4, _) = mk(32, memview::PAGE_4K);
        let (d64, _) = mk(32, memview::PAGE_64K);
        let (e4, e64) = (Exchanger::memmap(&d4).stats(), Exchanger::memmap(&d64).stats());
        assert_eq!(e4.payload_bytes, e64.payload_bytes);
        assert!(e64.wire_bytes > e4.wire_bytes);
        assert!(e64.padding_overhead_percent() > 100.0);
    }

    /// MemMap self-periodic exchange must fill the full ghost rim
    /// correctly — through real mmap views.
    #[test]
    fn self_periodic_memmap_exchange() {
        for page in [memview::PAGE_4K, memview::PAGE_64K] {
            let d = memmap_decomp([32; 3], 8, BrickDims::cubic(8), 1, surface3d(), page);
            let topo = CartTopo::new(&[1, 1, 1], true);
            let errors = run_cluster(&topo, NetworkModel::instant(), |ctx| {
                let mut st = MemMapStorage::allocate(&d).unwrap();
                let mut ev = cut(&d, &st);
                let f = |x: i64, y: i64, z: i64| (x + 100 * y + 10_000 * z) as f64;
                for z in 0..32 {
                    for y in 0..32 {
                        for x in 0..32 {
                            let off = d.element_offset([x, y, z], 0);
                            st.storage.as_mut_slice()[off] = f(x as i64, y as i64, z as i64);
                        }
                    }
                }
                ev.exchange(ctx, &mut st).unwrap();
                let (g, n) = (8isize, 32isize);
                let mut errors = 0usize;
                for z in -g..n + g {
                    for y in -g..n + g {
                        for x in -g..n + g {
                            let interior =
                                (0..n).contains(&x) && (0..n).contains(&y) && (0..n).contains(&z);
                            if interior {
                                continue;
                            }
                            let got = st.storage.as_slice()[d.element_offset([x, y, z], 0)];
                            let want = f(
                                x.rem_euclid(n) as i64,
                                y.rem_euclid(n) as i64,
                                z.rem_euclid(n) as i64,
                            );
                            if got != want {
                                errors += 1;
                            }
                        }
                    }
                }
                errors
            });
            assert_eq!(errors[0], 0, "page={page}");
        }
    }

    /// Two ranks under drop/corrupt/dup injection: the retry protocol
    /// must leave every rank's storage bit-identical to a clean run.
    #[test]
    fn memmap_exchange_converges_bitwise_under_faults() {
        let d = memmap_decomp([32; 3], 8, BrickDims::cubic(8), 1, surface3d(), memview::PAGE_4K);
        let topo = CartTopo::new(&[2, 1, 1], true);
        let run = |cfg: FaultConfig| {
            run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
                let mut st = MemMapStorage::allocate(&d).unwrap();
                let mut ev = cut(&d, &st);
                let rank = ctx.rank() as i64;
                for z in 0..32i64 {
                    for y in 0..32i64 {
                        for x in 0..32i64 {
                            let off = d.element_offset([x as isize, y as isize, z as isize], 0);
                            st.storage.as_mut_slice()[off] =
                                (rank * 32 + x + 1000 * y + 100_000 * z) as f64;
                        }
                    }
                }
                for _ in 0..3 {
                    ev.exchange(ctx, &mut st).unwrap();
                }
                (st.storage.as_slice().to_vec(), ctx.fault_stats().total())
            })
        };
        let cfg =
            FaultConfig { seed: 42, drop: 0.10, corrupt: 0.05, dup: 0.10, ..FaultConfig::off() };
        let lossy = run(cfg);
        let clean = run(FaultConfig::off());
        let mut injected = 0u64;
        for ((grid, damage), (want, _)) in lossy.iter().zip(&clean) {
            assert_eq!(grid, want, "chaos run must converge to the fault-free grid");
            injected += damage;
        }
        assert!(injected > 0, "seed 42 at these rates must inject something");
    }

    /// Writes through the *storage* must be visible through the *views*
    /// without any copy (the aliasing that makes MemMap pack-free).
    #[test]
    fn views_alias_storage() {
        let (d, mut st) = mk(32, memview::PAGE_4K);
        let schedule = Exchanger::memmap(&d);
        let first_send = &schedule.passes[0].sends[0];
        let first_view = cut_view(st.file(), &first_send.runs, d.step() * 8).unwrap();
        // Pick the first surface brick of the first send view's first
        // region and write a sentinel through storage.
        let region0 = d
            .plan()
            .neighbor(&first_send.dir)
            .send_regions
            .iter()
            .find(|t| d.region_bricks(t) > 0)
            .copied()
            .unwrap();
        let chunk = d.surface_chunk(&region0);
        let brick = chunk.bricks.start as u32;
        st.storage.field_mut(brick, 0)[0] = 424242.0;
        assert_eq!(
            first_view.as_f64()[0],
            424242.0,
            "view must alias storage with zero copies"
        );
    }

    /// A whole-file view is page-rounded, so storage that ends inside a
    /// page cannot back a `BrickStorage` of its exact length.
    #[test]
    fn storage_off_the_page_grid_is_invalid_input() {
        let d = BrickDecomp::<3>::layout_mode([6; 3], 2, BrickDims::cubic(2), 1, surface3d());
        assert!(!is_aligned(d.bricks() * d.step() * 8, host_page_size()));
        let e = MemMapStorage::allocate(&d).err().expect("unaligned storage must be refused");
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    #[should_panic(expected = "padding does not satisfy")]
    fn unpadded_decomp_rejected() {
        // 4^3 bricks (512 B) without padding put chunk boundaries inside
        // pages; view construction must refuse.
        let d = BrickDecomp::<3>::layout_mode([16; 3], 4, BrickDims::cubic(4), 1, surface3d());
        let st = MemMapStorage::allocate(&d).unwrap();
        let _ = cut(&d, &st);
    }
}
