//! The baselines the paper evaluates against.
//!
//! * **YASK-like** ([`Flavor::Packed`]): a tuned lexicographic-array
//!   stencil framework; its halo exchange must *pack* each of the 26
//!   strided surface regions into a contiguous buffer (row-wise memcpy —
//!   the optimized form of packing) and unpack on arrival. The
//!   pack/unpack time is real, measured on this host.
//! * **MPI_Types** ([`Flavor::Datatypes`]): the application posts derived
//!   datatypes and the MPI library does the gather/scatter internally —
//!   reproduced with the `stencil::Datatype` engine's element-wise walk,
//!   charged to MPI `call` time (the application's own `pack` meter stays
//!   at zero, as in the paper's artifact).
//!
//! Both flavors move their buffers with the same communication plan
//! (`plan.rs`) every brick engine uses — sends are the 26 pack buffers,
//! receives ranges of one arena — so the comparison the paper makes is
//! between data layouts, not between transports. Whole or split
//! (`begin`/`poll`/`finish`), an exchange gathers, runs the plan and
//! scatters each receive as it lands.

use layout::{all_regions, Dir};
use netsim::telemetry::Phase;
use netsim::{NetsimError, RankCtx};
use stencil::{ArrayGrid, Datatype};

use crate::exchange::ExchangeStats;
use crate::plan::{CommPlan, IntoRanges, RecvSpec, SendSpec};

/// How an array exchange gathers its sends and scatters its receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// YASK: row-wise application pack/unpack, timed as `pack`/`unpack`.
    Packed,
    /// MPI_Types: the library's element-wise datatype walk, as `call`.
    Datatypes,
}

/// Reusable halo-exchange state for an [`ArrayGrid`] subdomain.
///
/// Receive buffers live in one flat arena (per-direction sorted
/// sub-ranges) so completions land straight in it; the transport
/// between the pack buffers and the arena is a `CommPlan`, bound to
/// the rank on first use — the steady-state exchange allocates nothing.
pub struct ArrayExchanger {
    flavor: Flavor,
    /// The timeline scope every call runs under.
    scope: &'static str,
    dirs: Vec<Dir>,
    send_bufs: Vec<Vec<f64>>,
    recv_arena: Vec<f64>,
    recv_ranges: Vec<std::ops::Range<usize>>,
    send_types: Vec<Datatype>,
    recv_types: Vec<Datatype>,
    stats: ExchangeStats,
    plan: Option<CommPlan>,
    pend: Vec<std::ops::Range<usize>>,
    /// Bit `j`: receive `j` of this exchange is in the ghost rim.
    scattered: u32,
}

impl ArrayExchanger {
    /// Build for a grid geometry (buffers and datatypes are reused every
    /// step; the communication pattern is Static).
    pub fn new(grid: &ArrayGrid, flavor: Flavor) -> ArrayExchanger {
        let dirs = all_regions(3);
        let g = grid.ghost();
        let n = grid.interior();
        let full = [n[0] + 2 * g, n[1] + 2 * g, n[2] + 2 * g];
        let mut send_bufs = Vec::with_capacity(dirs.len());
        let mut recv_ranges = Vec::with_capacity(dirs.len());
        let mut send_types = Vec::with_capacity(dirs.len());
        let mut recv_types = Vec::with_capacity(dirs.len());
        let mut stats = ExchangeStats::default();
        let mut arena_len = 0usize;
        for d in &dirs {
            let elems = grid.region_elements(d);
            send_bufs.push(Vec::with_capacity(elems));
            recv_ranges.push(arena_len..arena_len + elems);
            arena_len += elems;
            send_types.push(region_type(grid, d, false, full));
            recv_types.push(region_type(grid, d, true, full));
            stats.messages += 1;
            stats.payload_bytes += elems * 8;
            stats.wire_bytes += elems * 8;
            stats.region_instances += 1;
        }
        ArrayExchanger {
            flavor,
            scope: if flavor == Flavor::Packed { "exchange:yask" } else { "exchange:mpitypes" },
            dirs,
            send_bufs,
            recv_arena: vec![0.0; arena_len],
            recv_ranges,
            send_types,
            recv_types,
            stats,
            plan: None,
            pend: Vec::new(),
            scattered: 0,
        }
    }

    /// Traffic statistics (26 messages, one per neighbor).
    pub fn stats(&self) -> ExchangeStats {
        self.stats
    }

    /// The plan one exchange runs (none before the first binds it).
    pub(crate) fn plans(&self) -> impl Iterator<Item = &CommPlan> {
        self.plan.iter()
    }

    /// Drop the plan a failed step may have torn; the next use rebinds.
    pub(crate) fn rebuild(&mut self) {
        self.plan = None;
    }

    /// The neighbor each mailbox receive comes from, in the completion
    /// order `begin`/`poll` report (binding the plan if needed).
    pub(crate) fn mailbox_dirs(&mut self, ctx: &RankCtx<'_>) -> Vec<Dir> {
        self.bind(ctx);
        self.plans().flat_map(CommPlan::mailbox).map(|&j| self.dirs[j]).collect()
    }

    /// The plan, bound to `ctx`'s rank first unless it already is.
    fn bind(&mut self, ctx: &RankCtx<'_>) -> &CommPlan {
        if self.plan.as_ref().is_none_or(|p| p.rank() != ctx.rank()) {
            // A message toward `d` carries the sender's direction code;
            // the one from direction `d` was sent toward `d.mirror()`.
            let regions = || self.dirs.iter().zip(&self.recv_ranges);
            let sends: Vec<SendSpec> = regions()
                .map(|(d, r)| SendSpec { to: *d, tag: d.code(3) as u64, elems: r.len(), payload_bytes: r.len() * 8 })
                .collect();
            let recvs: Vec<RecvSpec> =
                regions().map(|(d, r)| RecvSpec { from: *d, tag: d.mirror().code(3) as u64, elems: r.len() }).collect();
            self.plan = Some(CommPlan::bind(None, ctx, 3, &sends, &recvs, true));
        }
        self.plan.as_ref().expect("bound above")
    }

    /// One whole exchange: gather every send, run the plan (its mailbox
    /// receives pre-posted, so peers' messages land in the arena
    /// directly), scatter every receive.
    pub fn exchange(&mut self, ctx: &mut RankCtx<'_>, grid: &mut ArrayGrid) -> Result<(), NetsimError> {
        ctx.scoped(self.scope, |ctx| {
            self.gather(ctx, grid);
            let (plan, mut mem) = self.transport(ctx);
            plan.exchange(ctx, &mut mem)?;
            drop(mem);
            self.scattered = 0;
            self.scatter(ctx, grid, !0);
            Ok(())
        })
    }

    /// First half of a split exchange: gather every send, post the plan
    /// and scatter what completed inline (the self-sends, and every
    /// receive under the lossy protocol). Positions of the mailbox
    /// receives that completed are appended to `completed`.
    pub(crate) fn begin(
        &mut self,
        ctx: &mut RankCtx<'_>,
        grid: &mut ArrayGrid,
        completed: &mut Vec<usize>,
    ) -> Result<(), NetsimError> {
        ctx.scoped(self.scope, |ctx| {
            self.gather(ctx, grid);
            let from = completed.len();
            let (plan, mut mem) = self.transport(ctx);
            plan.begin(ctx, &mut mem, completed)?;
            drop(mem);
            let waiting = self.bind(ctx).mailbox().iter().enumerate().filter(|(k, _)| !completed[from..].contains(k));
            let landed = waiting.fold(!0, |m, (_, &j)| m & !(1 << j));
            self.scattered = 0;
            self.scatter(ctx, grid, landed);
            Ok(())
        })
    }

    /// Middle of a split exchange: land what has arrived and scatter it
    /// before the caller sees it complete; returns how many receives
    /// newly completed.
    pub(crate) fn poll(
        &mut self,
        ctx: &mut RankCtx<'_>,
        grid: &mut ArrayGrid,
        completed: &mut Vec<usize>,
    ) -> Result<usize, NetsimError> {
        ctx.scoped(self.scope, |ctx| {
            let from = completed.len();
            let (plan, mut mem) = self.transport(ctx);
            let newly = plan.poll(ctx, &mut mem, completed)?;
            drop(mem);
            let mailbox = self.bind(ctx).mailbox();
            let landed = completed[from..].iter().fold(0, |m, &k| m | 1 << mailbox[k]);
            self.scatter(ctx, grid, landed);
            Ok(newly)
        })
    }

    /// Second half of a split exchange: block on what is outstanding,
    /// close the epoch and scatter the rest.
    pub(crate) fn finish(&mut self, ctx: &mut RankCtx<'_>, grid: &mut ArrayGrid) -> Result<(), NetsimError> {
        ctx.scoped(self.scope, |ctx| {
            let (plan, mut mem) = self.transport(ctx);
            plan.finish(ctx, &mut mem)?;
            drop(mem);
            self.scatter(ctx, grid, !0);
            Ok(())
        })
    }

    /// The bound plan and the memory it moves: the pack buffers and the
    /// receive arena.
    fn transport(&mut self, ctx: &RankCtx<'_>) -> (&mut CommPlan, IntoRanges<'_, Vec<f64>>) {
        self.bind(ctx);
        let mem = IntoRanges {
            sends: &self.send_bufs,
            data: self.recv_arena.as_mut_slice().into(),
            recvs: &self.recv_ranges,
            pend: &mut self.pend,
        };
        (self.plan.as_mut().expect("bound above"), mem)
    }

    /// Fill every send buffer from the grid's surface regions — the
    /// on-node data movement the paper eliminates.
    fn gather(&mut self, ctx: &mut RankCtx<'_>, grid: &ArrayGrid) {
        let (dirs, types, flavor) = (&self.dirs, &self.send_types, self.flavor);
        let phase = match flavor {
            Flavor::Packed => Phase::Pack,
            Flavor::Datatypes => Phase::Wire,
        };
        ctx.time(phase, |_| {
            for (i, buf) in self.send_bufs.iter_mut().enumerate() {
                match flavor {
                    Flavor::Packed => grid.pack_surface(&dirs[i], buf),
                    Flavor::Datatypes => types[i].pack_into(grid.as_slice(), buf),
                }
            }
        });
    }

    /// Copy the receives of bitmask `landed` that are not in the ghost
    /// rim yet into their ghost regions — more on-node data movement.
    fn scatter(&mut self, ctx: &mut RankCtx<'_>, grid: &mut ArrayGrid, landed: u32) {
        let todo = landed & !self.scattered;
        if todo == 0 {
            return;
        }
        self.scattered |= todo;
        let (dirs, types, arena, ranges) = (&self.dirs, &self.recv_types, &self.recv_arena, &self.recv_ranges);
        let bufs = (0..dirs.len()).filter(|j| todo >> j & 1 == 1).map(|j| (j, &arena[ranges[j].clone()]));
        let flavor = self.flavor;
        let phase = match flavor {
            Flavor::Packed => Phase::Unpack,
            Flavor::Datatypes => Phase::Wire,
        };
        ctx.time(phase, |_| {
            for (j, buf) in bufs {
                match flavor {
                    Flavor::Packed => grid.unpack_ghost(&dirs[j], buf),
                    Flavor::Datatypes => types[j].unpack(grid.as_mut_slice(), buf),
                }
            }
        });
    }
}

/// Subarray datatype for a surface (`ghost = false`) or ghost
/// (`ghost = true`) region of the grid, in raw-array coordinates.
fn region_type(grid: &ArrayGrid, dir: &Dir, ghost: bool, full: [usize; 3]) -> Datatype {
    let g = grid.ghost() as isize;
    let ranges = if ghost { grid.ghost_range(dir) } else { grid.surface_range(dir) };
    let start = std::array::from_fn(|a| (ranges[a].start + g) as usize);
    let sub = std::array::from_fn(|a| (ranges[a].end - ranges[a].start) as usize);
    Datatype::subarray3(full, start, sub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{run_cluster, CartTopo, NetworkModel};

    fn check_ghosts(grid: &ArrayGrid, f: impl Fn(i64, i64, i64) -> f64, n: isize) -> usize {
        let g = grid.ghost() as isize;
        let mut errors = 0;
        for z in -g..n + g {
            for y in -g..n + g {
                for x in -g..n + g {
                    let interior =
                        (0..n).contains(&x) && (0..n).contains(&y) && (0..n).contains(&z);
                    if interior {
                        continue;
                    }
                    let want = f(
                        x.rem_euclid(n) as i64,
                        y.rem_euclid(n) as i64,
                        z.rem_euclid(n) as i64,
                    );
                    if grid.get(x, y, z) != want {
                        errors += 1;
                    }
                }
            }
        }
        errors
    }

    #[test]
    fn packed_exchange_self_periodic() {
        let topo = CartTopo::new(&[1, 1, 1], true);
        let errors = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mut grid = ArrayGrid::new([24; 3], 8);
            let f = |x: i64, y: i64, z: i64| (x + 31 * y + 997 * z) as f64;
            grid.fill_interior(|x, y, z| f(x as i64, y as i64, z as i64));
            let mut ex = ArrayExchanger::new(&grid, Flavor::Packed);
            ex.exchange(ctx, &mut grid).unwrap();
            check_ghosts(&grid, f, 24)
        });
        assert_eq!(errors[0], 0);
    }

    #[test]
    fn mpitypes_exchange_self_periodic() {
        let topo = CartTopo::new(&[1, 1, 1], true);
        let errors = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mut grid = ArrayGrid::new([24; 3], 8);
            let f = |x: i64, y: i64, z: i64| (x + 31 * y + 997 * z) as f64;
            grid.fill_interior(|x, y, z| f(x as i64, y as i64, z as i64));
            let mut ex = ArrayExchanger::new(&grid, Flavor::Datatypes);
            ex.exchange(ctx, &mut grid).unwrap();
            check_ghosts(&grid, f, 24)
        });
        assert_eq!(errors[0], 0);
    }

    #[test]
    fn packed_and_mpitypes_agree() {
        let topo = CartTopo::new(&[1, 1, 1], true);
        let sums = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mk = || {
                let mut g = ArrayGrid::new([16; 3], 8);
                g.fill_interior(|x, y, z| ((x * 3 + y * 5 + z * 7) % 11) as f64);
                g
            };
            let mut a = mk();
            let mut b = mk();
            let mut ea = ArrayExchanger::new(&a, Flavor::Packed);
            let mut eb = ArrayExchanger::new(&b, Flavor::Datatypes);
            ea.exchange(ctx, &mut a).unwrap();
            eb.exchange(ctx, &mut b).unwrap();
            assert_eq!(a.as_slice(), b.as_slice());
        });
        let _ = sums;
    }

    #[test]
    fn pack_time_is_measured_mpitypes_charges_call() {
        let topo = CartTopo::new(&[1, 1, 1], true);
        let t = run_cluster(&topo, NetworkModel::instant(), |ctx| {
            let mut grid = ArrayGrid::new([32; 3], 8);
            grid.fill_interior(|x, _, _| x as f64);
            let (mut packed, mut walked) =
                (ArrayExchanger::new(&grid, Flavor::Packed), ArrayExchanger::new(&grid, Flavor::Datatypes));
            // Warm both paths (first-touch buffer allocation), then take
            // the *minimum* over several rounds — robust against
            // scheduler noise on loaded hosts.
            packed.exchange(ctx, &mut grid).unwrap();
            walked.exchange(ctx, &mut grid).unwrap();
            let mut best_pack = f64::INFINITY;
            let mut best_walk = f64::INFINITY;
            for _ in 0..7 {
                ctx.reset_timers();
                packed.exchange(ctx, &mut grid).unwrap();
                best_pack = best_pack.min(ctx.timers().pack);
                ctx.reset_timers();
                walked.exchange(ctx, &mut grid).unwrap();
                best_walk = best_walk.min(ctx.timers().call);
            }
            ctx.reset_timers();
            packed.exchange(ctx, &mut grid).unwrap();
            let packed = ctx.timers();
            ctx.reset_timers();
            walked.exchange(ctx, &mut grid).unwrap();
            let types = ctx.timers();
            (packed, types, best_pack, best_walk)
        });
        let (packed, types, best_pack, best_walk) = t[0];
        assert!(packed.pack > 0.0, "packed exchange must measure pack time");
        assert_eq!(types.pack, 0.0, "MPI_Types has no application packing");
        assert!(types.call > 0.0, "MPI_Types walk charges call time");
        // The element-wise datatype walk is slower than row-wise memcpy
        // packing (the paper's central observation about MPI_Types);
        // compare best-of-N times for noise robustness.
        assert!(best_walk > best_pack, "walk {best_walk} vs pack {best_pack}");
    }

    /// Packed exchange under drop/corrupt/dup injection: the retry
    /// protocol must converge to the fault-free ghost rim.
    #[test]
    fn packed_exchange_converges_under_faults() {
        use netsim::{run_cluster_faulty, FaultConfig};
        let topo = CartTopo::new(&[2, 1, 1], true);
        let run = |cfg: FaultConfig| {
            run_cluster_faulty(&topo, NetworkModel::instant(), cfg, |ctx| {
                let mut grid = ArrayGrid::new([16; 3], 8);
                let rank = ctx.rank() as i64;
                grid.fill_interior(|x, y, z| (rank * 16 + x as i64 + 31 * y as i64 + 997 * z as i64) as f64);
                let mut ex = ArrayExchanger::new(&grid, Flavor::Packed);
                for _ in 0..2 {
                    ex.exchange(ctx, &mut grid).unwrap();
                }
                grid.as_slice().to_vec()
            })
        };
        let cfg =
            FaultConfig { seed: 7, drop: 0.15, corrupt: 0.05, dup: 0.10, ..FaultConfig::off() };
        assert_eq!(run(cfg), run(FaultConfig::off()));
    }

    #[test]
    fn stats_match_geometry() {
        let grid = ArrayGrid::new([32; 3], 8);
        let ex = ArrayExchanger::new(&grid, Flavor::Packed);
        assert_eq!(ex.stats().messages, 26);
        assert_eq!(ex.stats().payload_bytes, grid.exchange_bytes());
        assert_eq!(ex.stats().padding_overhead_percent(), 0.0);
    }
}
