//! MemMap exchange (paper Section 4): brick storage lives in a
//! `memfd` file with page-aligned chunks; per-neighbor `mmap` views make
//! all regions bound for one neighbor appear contiguous, so exactly one
//! message per neighbor suffices — no packing, minimal message count,
//! at the price of padding.
//!
//! An [`ExchangeView`] holds the views and the 26-message schedule over
//! them, both cut from the Layout schedule ([`Exchanger::layout`]): the
//! runs Layout sends one neighbor become the segments of that neighbor's
//! view. On first use it binds the crate's communication plan
//! (`plan.rs`) to the rank. The plan owns the send/receive/wait
//! lifecycle; this module only says where the bytes are — each send is
//! a view, each receive a ghost range of the storage the views alias.

use std::io;
use std::sync::Arc;

use brick::BrickStorage;
use memview::{host_page_size, is_aligned, ContiguousView, MappedGrid, MemFile, Segment};
use netsim::{NetsimError, RankCtx};

use crate::decomp::{pad_bricks_for, BrickDecomp};
use crate::engine::{BrickExchange, SplitSetup};
use crate::exchange::{ExchangeStats, Exchanger};
use crate::plan::{Call, CommPlan, IntoRanges, RecvSpec, SendSpec};

/// Brick storage whose backing is an mmap-able in-memory file (the
/// paper's `bInfo.mmap_alloc(bSize)`).
pub struct MemMapStorage {
    /// The grid's file. It drops before `storage`, so the grid finds its
    /// file otherwise unheld and goes back to the pool of mapped grids.
    file: Arc<MemFile>,
    /// The storage (usable exactly like heap storage for computation).
    pub storage: BrickStorage,
    step: usize,
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
        Ok(MemMapStorage { file, storage, step })
    }

    /// The backing file.
    pub fn file(&self) -> &Arc<MemFile> {
        &self.file
    }

    /// Byte range in the file of a padded brick range.
    fn byte_range(&self, bricks: &std::ops::Range<usize>) -> Segment {
        Segment {
            file_offset: bricks.start * self.step * 8,
            len: (bricks.end - bricks.start) * self.step * 8,
        }
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

/// One neighbor's send view.
pub(crate) struct ViewMsg {
    view: ContiguousView,
    /// Padded storage bricks composing the view, in view order (pad
    /// bricks included — the view ships them, so partitions stay
    /// page-aligned brick-sized sub-ranges).
    bricks: Vec<usize>,
}

impl AsRef<[f64]> for ViewMsg {
    fn as_ref(&self) -> &[f64] {
        self.view.as_f64()
    }
}

/// Per-neighbor contiguous send views plus direct ghost receives — the
/// paper's `ExchangeView` (Fig. 7, right column). Built once, reused
/// every timestep ("views can be reused throughout the application
/// until the communication pattern changes").
pub struct ExchangeView {
    views: Vec<ViewMsg>,
    sends: Vec<SendSpec>,
    recvs: Vec<RecvSpec>,
    /// Per receive: the ghost group's element range in the storage.
    recv_ranges: Vec<std::ops::Range<usize>>,
    stats: ExchangeStats,
    dims: usize,
    /// The storage file the send views alias; exchanges verify they are
    /// driven with the same storage they were built on.
    bound_file: Arc<MemFile>,
    /// The schedule bound to a rank, lazily on first exchange so the
    /// steady-state loop resolves no neighbors and allocates nothing.
    plan: Option<CommPlan>,
    pend: Vec<std::ops::Range<usize>>,
}

impl ExchangeView {
    /// Build the views for `decomp` over `storage`'s file.
    pub fn build<const D: usize>(
        decomp: &BrickDecomp<D>,
        storage: &MemMapStorage,
    ) -> io::Result<ExchangeView> {
        ExchangeView::over(&Exchanger::layout(decomp), storage)
    }

    /// The views of a Layout schedule over `storage`'s file (paper §4):
    /// the runs it sends one neighbor, each a file segment, mapped back
    /// to back into one view — one message per neighbor. The ghost runs
    /// it receives from one neighbor are adjacent in storage, so each
    /// neighbor's message lands in one range.
    pub(crate) fn over(schedule: &Exchanger, storage: &MemMapStorage) -> io::Result<ExchangeView> {
        let (host, d, brick_bytes) = (host_page_size(), schedule.dims, storage.step * 8);
        let (mut views, mut sends) = (Vec::new(), Vec::new());
        for runs in schedule.sends().chunk_by(|a, b| a.to == b.to) {
            let segments: Vec<Segment> = runs.iter().map(|m| storage.byte_range(&m.bricks)).collect();
            assert!(
                segments.iter().all(|s| is_aligned(s.file_offset, host) && is_aligned(s.len, host)),
                "chunk padding does not satisfy the host page size; \
                 build the decomposition with memmap_decomp"
            );
            let view = ContiguousView::build(storage.file(), &segments)?;
            let to = runs[0].to;
            let payload_bytes = runs.iter().map(|m| m.payload_bricks * brick_bytes).sum();
            sends.push(SendSpec { to, tag: to.code(d) as u64, elems: view.as_f64().len(), payload_bytes });
            views.push(ViewMsg { view, bricks: runs.iter().flat_map(|m| m.bricks.clone()).collect() });
        }
        let (mut recvs, mut recv_ranges) = (Vec::new(), Vec::new());
        for runs in schedule.recvs().chunk_by(|a, b| a.from == b.from) {
            let (from, step) = (runs[0].from, storage.step);
            let range = runs[0].bricks.start * step..runs[runs.len() - 1].bricks.end * step;
            recvs.push(RecvSpec { from, tag: from.mirror().code(d) as u64, elems: range.len() });
            recv_ranges.push(range);
        }
        assert_eq!(sends.len(), recvs.len());
        Ok(ExchangeView {
            stats: ExchangeStats { messages: sends.len(), ..schedule.stats() },
            views,
            sends,
            recvs,
            recv_ranges,
            dims: d,
            bound_file: Arc::clone(storage.file()),
            plan: None,
            pend: Vec::new(),
        })
    }

    /// Traffic statistics (includes padding in `wire_bytes`; the number
    /// of `mmap` segments is `stats().messages`-independent and can be
    /// read via [`ExchangeView::mapped_segments`]).
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }

    /// Total mmap segments across all views — bounded by the kernel's
    /// `vm.max_map_count`, and minimized by layout optimization: one
    /// segment per Layout run, so 42 with `surface3d` and, in
    /// lexicographic order, 42 at 16³ and 62 from 32³.
    pub fn mapped_segments(&self) -> usize {
        self.views.iter().map(|m| m.view.segments().len()).sum()
    }

    /// One full exchange: each neighbor gets exactly one message sent
    /// straight out of its contiguous view; each ghost group receives
    /// one message straight into storage. Zero on-node copies on the
    /// send side; self-sends (proxy mode) take the loopback fast path —
    /// one copy from the mmap view straight into the ghost range, with
    /// identical wire-model charges. The schedule is bound to the rank
    /// on the first call, so steady-state exchanges allocate nothing.
    /// Under lossy faults the plan's retry protocol stages its frames
    /// from the views and converges to the fault-free storage bits.
    pub fn exchange(
        &mut self,
        ctx: &mut RankCtx<'_>,
        storage: &mut MemMapStorage,
    ) -> Result<(), NetsimError> {
        self.ensure_bound(ctx, storage);
        self.call(ctx, &mut storage.storage, Call::Exchange).map(drop)
    }

    /// Bind the schedule to `ctx`'s rank if this view has not yet been
    /// driven on it (idempotent otherwise; a rebind drops all protocol
    /// state with the old plan). [`Self::exchange`] calls this itself; a
    /// dependency-graph driver calls it up front so the mailbox receives
    /// are known before the first exchange.
    pub fn ensure_bound(&mut self, ctx: &RankCtx<'_>, storage: &MemMapStorage) {
        assert!(
            Arc::ptr_eq(&self.bound_file, storage.file()),
            "ExchangeView driven with a different storage than it was built on \
             (send views would alias the original storage's memory)"
        );
        if self.plan.as_ref().is_none_or(|p| p.rank() != ctx.rank()) {
            self.plan =
                Some(CommPlan::bind(Some("exchange:memmap"), ctx, self.dims, &self.sends, &self.recvs, true));
        }
    }
}

/// Each grid has its own view set: the send views alias one grid's file.
impl BrickExchange for ExchangeView {
    type Schedule = Exchanger;

    fn open(schedule: &Exchanger, decomp: &BrickDecomp<3>, ctx: &RankCtx<'_>) -> ([BrickStorage; 2], Vec<Self>) {
        let grids = [(); 2].map(|()| MemMapStorage::allocate(decomp).expect("memfd allocation"));
        let views = grids.iter().map(|grid| {
            let mut view = ExchangeView::over(schedule, grid).expect("view construction");
            view.ensure_bound(ctx, grid);
            view
        });
        let views = views.collect();
        (grids.map(|grid| grid.storage), views)
    }

    fn stats(&self) -> ExchangeStats {
        self.stats
    }

    fn plans(&mut self) -> &mut [CommPlan] {
        self.plan.as_mut_slice()
    }

    /// A view's partitions are its padded storage bricks (`step`
    /// elements each, page-aligned by construction, so `pready` still
    /// reads straight out of the mmap view — pack-free).
    fn arm(&mut self, decomp: &BrickDecomp<3>, partitioned: bool) -> SplitSetup {
        let (views, step) = (&self.views, decomp.step());
        let plan = self.plan.as_mut().expect("bound when opened");
        if partitioned {
            plan.enable_partitioned(step, decomp.bricks(), |i| views[i].bricks.clone());
        }
        let ghosts = plan.mailbox().iter().map(|&j| {
            let r = &self.recv_ranges[j];
            ((r.start / step) as u32..(r.end / step) as u32).collect()
        });
        (ghosts.collect(), plan.priority().cloned())
    }

    /// The send views alias the surface bricks of `grid`, the receive
    /// ranges cover its ghost bricks — disjoint file ranges.
    fn call(&mut self, ctx: &mut RankCtx<'_>, grid: &mut BrickStorage, call: Call<'_>) -> Result<usize, NetsimError> {
        let mut mem = IntoRanges {
            sends: &self.views,
            data: grid.as_mut_slice().into(),
            recvs: &self.recv_ranges,
            pend: &mut self.pend,
        };
        self.plan.as_mut().expect("call ensure_bound first").call(ctx, &mut mem, call)
    }
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

    #[test]
    fn one_message_per_neighbor() {
        let (d, st) = mk(48, memview::PAGE_4K);
        let ev = ExchangeView::build(&d, &st).unwrap();
        assert_eq!(ev.stats().messages, 26);
        // Layout optimization keeps mappings at the run count (42).
        assert_eq!(ev.mapped_segments(), 42);
        // Lexicographic order: still one message per neighbor, and one
        // segment per run of that order — No-Layout's message count.
        for (n, segments) in [(16, 42), (32, 62), (64, 62)] {
            let lex = layout::SurfaceLayout::lexicographic(3);
            let d = memmap_decomp([n; 3], 8, BrickDims::cubic(8), 1, lex, memview::PAGE_4K);
            let ev = ExchangeView::build(&d, &MemMapStorage::allocate(&d).unwrap()).unwrap();
            assert_eq!((ev.stats().messages, ev.mapped_segments()), (26, segments), "lexicographic {n}^3");
            assert_eq!(ev.mapped_segments(), Exchanger::layout(&d).stats().messages, "lexicographic {n}^3");
        }
    }

    #[test]
    fn padding_overhead_zero_for_4k_pages_and_8cubed_bricks() {
        // One 8^3 f64 brick = exactly one 4 KiB page: no waste.
        let (d, st) = mk(48, memview::PAGE_4K);
        let ev = ExchangeView::build(&d, &st).unwrap();
        assert_eq!(ev.stats().padding_overhead_percent(), 0.0);
    }

    #[test]
    fn padding_overhead_grows_with_page_size() {
        let (d4, s4) = mk(32, memview::PAGE_4K);
        let (d64, s64) = mk(32, memview::PAGE_64K);
        let e4 = ExchangeView::build(&d4, &s4).unwrap();
        let e64 = ExchangeView::build(&d64, &s64).unwrap();
        assert_eq!(e4.stats().payload_bytes, e64.stats().payload_bytes);
        assert!(e64.stats().wire_bytes > e4.stats().wire_bytes);
        assert!(e64.stats().padding_overhead_percent() > 100.0);
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
                let mut ev = ExchangeView::build(&d, &st).unwrap();
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
                let mut ev = ExchangeView::build(&d, &st).unwrap();
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
        let ev = ExchangeView::build(&d, &st).unwrap();
        // Pick the first surface brick of the first send view's first
        // region and write a sentinel through storage.
        let (first_send, first_view) = (&ev.sends[0], &ev.views[0]);
        let region0 = d
            .plan()
            .neighbor(&first_send.to)
            .send_regions
            .iter()
            .find(|t| d.region_bricks(t) > 0)
            .copied()
            .unwrap();
        let chunk = d.surface_chunk(&region0);
        let brick = chunk.bricks.start as u32;
        st.storage.field_mut(brick, 0)[0] = 424242.0;
        assert_eq!(
            first_view.view.as_f64()[0],
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
        let _ = ExchangeView::build(&d, &st);
    }
}
